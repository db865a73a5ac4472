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

/// Files in [`ARTIFACT_DIR`] that the benchmark reads as fixed inputs. No
/// command writes one of them by default.
pub const PINNED_ARTIFACTS: [&str; 2] = ["dataset.txt", "model.txt"];

/// Default file name of a `dataset` run: it names the command's inputs,
/// e.g. `dataset_2400x2500_s1.txt` for 2,400 samples of 2,500 requests at
/// seed 1.
pub fn dataset_file_name(samples: usize, requests: usize, seed: u64) -> String {
    format!("dataset_{samples}x{requests}_s{seed}.txt")
}

/// Default file name of the model `fig4` saves: `data` names what it was
/// trained on (the dataset file's stem, or `<samples>x<requests>` for a
/// dataset labelled on the fly), e.g. `model_fig4_64x1000_s1.txt`.
pub fn model_file_name(data: &str, seed: u64) -> String {
    format!("model_fig4_{data}_s{seed}.txt")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Running `dataset` or `fig4` with its defaults can never overwrite
    /// a pinned artifact, whatever the inputs.
    #[test]
    fn default_outputs_never_name_a_pinned_artifact() {
        let pinned_stems = PINNED_ARTIFACTS.map(|f| f.trim_end_matches(".txt"));
        for samples in [0, 1, 64, 800, 2_400] {
            for requests in [0, 1_000, 2_500] {
                for seed in [0, 1, 3, u64::MAX] {
                    let dataset = dataset_file_name(samples, requests, seed);
                    let mut names = vec![
                        model_file_name(&format!("{samples}x{requests}"), seed),
                        model_file_name(dataset.trim_end_matches(".txt"), seed),
                    ];
                    names.extend(pinned_stems.map(|stem| model_file_name(stem, seed)));
                    names.push(dataset);
                    for name in names {
                        assert!(!PINNED_ARTIFACTS.contains(&name.as_str()), "{name}");
                    }
                }
            }
        }
    }
}
