//! `--json` stdout purity: binaries that advertise machine-parseable
//! output must emit exactly one JSON document on stdout — status,
//! digests, and progress all belong on stderr. Each stdout is piped
//! through the same std-only JSON parser `ssdtrace diff` trusts
//! (`trace_tools::json::parse` rejects trailing garbage, so a stray
//! `println!` anywhere in the run fails the test).

use std::process::{Command, Output};

fn run_bin(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .expect("spawn exp bin")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "exit {:?}, stderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("stdout is utf-8")
}

#[test]
fn fleet_json_stdout_is_one_parseable_document() {
    let out = run_bin(
        env!("CARGO_BIN_EXE_fleet"),
        &[
            "--json",
            "--tenants",
            "8",
            "--devices",
            "2",
            "--requests",
            "60",
            "--workers",
            "1",
        ],
    );
    let stdout = stdout_of(&out);
    let doc = trace_tools::json::parse(&stdout)
        .unwrap_or_else(|e| panic!("fleet --json stdout unparseable: {e}\n{stdout}"));
    assert!(
        doc.get("ssdtrace").is_some() && doc.get("events").is_some(),
        "unexpected document shape:\n{stdout}"
    );
    // The determinism digest still exists for scripts — on stderr now.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fleet digest: 0x"),
        "digest line missing from stderr: {stderr}"
    );
}

#[test]
fn fleet_human_mode_keeps_digest_on_stdout() {
    // verify.sh greps stdout for `^fleet digest:` in the non-json mode;
    // that contract must survive the stderr routing.
    let out = run_bin(
        env!("CARGO_BIN_EXE_fleet"),
        &[
            "--tenants",
            "8",
            "--devices",
            "2",
            "--requests",
            "60",
            "--workers",
            "1",
        ],
    );
    let stdout = stdout_of(&out);
    assert!(
        stdout.lines().any(|l| l.starts_with("fleet digest: 0x")),
        "digest left stdout in human mode:\n{stdout}"
    );
}
