//! `mc_explore` with a budget override explores a scope that is no longer
//! the named preset, so it writes no digest row and no `mc:` corpus line.

use std::process::{Command, Output};

/// `mc_explore` on `tiny` with one override and the replier mutation, plus
/// `flag path`.
fn overridden_tiny(flag: &str, path: &std::path::Path) -> Output {
    let args = [
        "--scope",
        "tiny",
        "--dup",
        "0",
        "--mutation",
        "replier",
        flag,
    ];
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mc_explore"));
    cmd.args(args).arg(path).output().expect("mc_explore runs")
}

#[test]
fn overrides_write_no_digest_and_no_corpus_line() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (digest, dumps) = (
        tmp.join("overridden-digest.txt"),
        tmp.join("overridden-dumps"),
    );
    let _ = std::fs::remove_file(&digest);
    let _ = std::fs::remove_dir_all(&dumps);

    let out = overridden_tiny("--digest", &digest);
    assert_eq!(out.status.code(), Some(3), "--digest is refused");
    assert!(!digest.exists(), "no digest row for an overridden scope");

    let out = overridden_tiny("--dump-dir", &dumps);
    assert_eq!(
        out.status.code(),
        Some(1),
        "the mutation yields a counterexample"
    );
    let bundle = std::fs::read_to_string(dumps.join("mc-tiny.txt")).expect("bundle written");
    assert!(bundle.contains("overrides: --dup 0"), "{bundle}");
    assert!(!bundle.contains("mc:"), "{bundle}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("mc:"), "{stderr}");
}
