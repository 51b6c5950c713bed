//! `mira-mine analyze` stdout, byte for byte, against committed
//! captures over the fixed-seed 30-day trace: as CSV, imported into a
//! snapshot (the same text), and as a CSV copy without `io.csv` under
//! `--degraded`, whose banner names the lost table and the stage it
//! feeds.

use std::path::Path;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_mira-mine");

/// Runs `mira-mine ARGS...`, requires success, and returns its stdout.
fn mira(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .expect("spawn mira-mine");
    assert!(out.status.success(), "mira-mine {args:?}: {}", out.status);
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("UTF-8 temp path")
}

#[test]
fn analyze_output_matches_the_committed_captures() {
    let root = std::env::temp_dir().join(format!("bgq-cli-analyze-golden-{}", std::process::id()));
    let (csv, snap, no_io) = (root.join("csv"), root.join("snap"), root.join("no-io"));
    mira(&[
        "--quiet",
        "gen",
        "--out",
        path(&csv),
        "--days",
        "30",
        "--seed",
        "1",
    ]);
    mira(&["--quiet", "import", path(&csv), path(&snap)]);
    std::fs::create_dir_all(&no_io).unwrap();
    for table in ["jobs", "ras", "tasks"] {
        let file = format!("{table}.csv");
        std::fs::copy(csv.join(&file), no_io.join(&file)).unwrap();
    }

    let golden = include_str!("fixtures/analyze_30d_seed1.txt");
    assert_eq!(mira(&["analyze", path(&csv)]), golden, "CSV");
    assert_eq!(mira(&["analyze", path(&snap)]), golden, "snapshot");
    assert_eq!(
        mira(&["--degraded", "analyze", path(&no_io)]),
        include_str!("fixtures/analyze_30d_seed1_degraded_no_io.txt"),
        "CSV without io.csv"
    );

    std::fs::remove_dir_all(&root).unwrap();
}
