//! End-to-end tests of the `simsearch` binary: generate → search with
//! two engines → verify the result files are identical → join.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_simsearch"))
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simsearch-cli-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_search_verify_round_trip() {
    let dir = tmpdir();
    let data = dir.join("e2e.data");
    let queries = dir.join("e2e.queries");
    let scan_out = dir.join("e2e.scan");
    let radix_out = dir.join("e2e.radix");

    let status = bin()
        .args(["generate", "--kind", "city", "--count", "500", "--seed", "9"])
        .args(["--out", data.to_str().unwrap()])
        .args(["--queries", queries.to_str().unwrap()])
        .args(["--query-count", "40"])
        .status()
        .expect("spawn generate");
    assert!(status.success());
    assert!(data.exists() && queries.exists());

    for (engine, out) in [("scan", &scan_out), ("radix", &radix_out)] {
        let status = bin()
            .args(["search", "--data", data.to_str().unwrap()])
            .args(["--queries", queries.to_str().unwrap()])
            .args(["--engine", engine])
            .args(["--output", out.to_str().unwrap()])
            .status()
            .expect("spawn search");
        assert!(status.success(), "engine {engine} failed");
    }

    // The two engines must have produced identical result files.
    let status = bin()
        .args(["verify", "--results", scan_out.to_str().unwrap()])
        .args(["--expected", radix_out.to_str().unwrap()])
        .status()
        .expect("spawn verify");
    assert!(status.success(), "scan and radix result files differ");

    // Join runs and emits well-formed triples.
    let output = bin()
        .args(["join", "--data", data.to_str().unwrap(), "--k", "1"])
        .output()
        .expect("spawn join");
    assert!(output.status.success());
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let parts: Vec<&str> = line.split('\t').collect();
        assert_eq!(parts.len(), 3, "malformed join line {line:?}");
        let l: u32 = parts[0].parse().unwrap();
        let r: u32 = parts[1].parse().unwrap();
        let d: u32 = parts[2].parse().unwrap();
        assert!(l < r && d <= 1);
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_flags_fail_with_usage() {
    let output = bin().args(["search", "--bogus"]).output().unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn stats_reports_properties() {
    let dir = tmpdir();
    let data = dir.join("stats.data");
    std::fs::write(&data, "abc\nde\n").unwrap();
    let output = bin()
        .args(["stats", "--data", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("2 records"), "unexpected stats: {stdout}");
    std::fs::remove_file(&data).unwrap();
}

#[test]
fn verify_detects_divergence() {
    let dir = tmpdir();
    let a = dir.join("a.results");
    let b = dir.join("b.results");
    std::fs::write(&a, "0: 1,2\n").unwrap();
    std::fs::write(&b, "0: 1,3\n").unwrap();
    let output = bin()
        .args(["verify", "--results", a.to_str().unwrap()])
        .args(["--expected", b.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("line 1 differs"));
    std::fs::remove_file(&a).unwrap();
    std::fs::remove_file(&b).unwrap();
}

#[test]
fn sharded_search_refuses_an_engine_without_a_shard_arm() {
    // A directory of its own: the round-trip test removes `tmpdir()`
    // when it finishes, which may be while this test runs.
    let dir = std::env::temp_dir().join(format!(
        "simsearch-cli-e2e-sharded-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data");
    let queries = dir.join("queries");
    std::fs::write(&data, "Berlin\nBern\nUlm\n").unwrap();
    std::fs::write(&queries, "Berlin\t1\n").unwrap();
    let output = bin()
        .args(["search", "--data", data.to_str().unwrap()])
        .args(["--queries", queries.to_str().unwrap()])
        .args(["--shards", "2", "--backend", "trie"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    for arm in ["auto", "scan-sorted", "scan-bitparallel", "radix", "qgram"] {
        assert!(stderr.contains(arm), "error should name {arm}: {stderr}");
    }
    assert!(stderr.contains("not trie"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
