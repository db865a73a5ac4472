//! `exp` — the experiment harness.
//!
//! One module per paper artefact, each exposing a `run(...)` entry point
//! used both by the per-figure binaries (`fig2`, `fig4`, `fig5`, `fig6`,
//! `dataset`, `traces`) and by the `run_all` orchestrator. The modules
//! print the same rows/series the paper reports and return the raw
//! numbers so tests can assert on shapes.

#![forbid(unsafe_code)]

pub mod args;
pub mod conflict;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod session;
pub mod table;
pub mod traces;

/// Default directory for datasets and models produced by the harness.
pub const ARTIFACT_DIR: &str = "artifacts";

/// Ensures the artifact directory exists and returns the path of `name`
/// inside it.
pub fn artifact_path(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(ARTIFACT_DIR);
    std::fs::create_dir_all(dir).expect("create artifacts dir");
    dir.join(name)
}
