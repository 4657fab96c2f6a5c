//! The `ablations` binary's command line: a study name it does not know
//! is a usage error, reported before any study runs, and a study that runs
//! to the end exits 0 with its identities intact.

use std::process::Command;

#[test]
fn unknown_study_exits_with_a_usage_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_ablations"))
        .args(["--study", "nosuch", "--scale", "test"])
        .output()
        .expect("the ablations binary runs");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown study \"nosuch\""), "{stderr}");
    assert!(output.stdout.is_empty(), "no study ran");
}

#[test]
fn fleet_study_holds_its_accounting_identities() {
    // The study asserts events, hits, misses and busy time at every
    // shard count; a broken identity panics and exits non-zero.
    let output = Command::new(env!("CARGO_BIN_EXE_ablations"))
        .args(["--study", "fleet", "--scale", "test"])
        .output()
        .expect("the ablations binary runs");
    assert_eq!(output.status.code(), Some(0), "{output:?}");
}
