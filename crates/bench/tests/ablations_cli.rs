//! The `ablations` binary's command line: a study name it does not know,
//! or an `--out` path that more than one study (or a study without an
//! artifact) would write, is a usage error reported before any study
//! runs, and a study that runs to the end exits 0 with its identities
//! intact.

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
fn out_with_several_studies_exits_with_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("ablations-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = dir.join("F.json");
    let out_arg = out.to_str().expect("utf-8 temp path");
    for studies in [
        &["--study", "all"][..],
        &["--study", "frontend", "--study", "wear"][..],
        &["--study", "fleet"][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_ablations"))
            .args(studies)
            .args(["--scale", "test", "--out", out_arg])
            .output()
            .expect("the ablations binary runs");
        assert_eq!(output.status.code(), Some(2), "{studies:?}: {output:?}");
        assert!(output.stdout.is_empty(), "{studies:?}: no study ran");
        assert!(!out.exists(), "{studies:?}: --out file was written");
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
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
