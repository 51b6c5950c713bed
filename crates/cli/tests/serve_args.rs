//! `mira-mine serve` argument parsing, end to end: the daemon tails the
//! directory it was given whether the value flags come before or after
//! it, and says so in its banner.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_mira-mine");

/// A spawned daemon, killed and reaped when the guard drops (also when
/// an assertion fails), so no process outlives the test.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `mira-mine --quiet serve ARGS...` and returns its banner line
/// (empty if the daemon exits without one).
fn banner(args: &[&str]) -> String {
    let child = Command::new(BIN)
        .arg("--quiet")
        .arg("serve")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mira-mine serve");
    let mut daemon = Daemon(child);
    let stdout = daemon.0.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read banner");
    line
}

#[test]
fn serve_tails_its_directory_wherever_the_flags_sit() {
    let dir = std::env::temp_dir().join(format!("bgq-cli-serve-args-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().expect("utf-8 temp path");
    let gen = Command::new(BIN)
        .args(["--quiet", "gen", "--out", d])
        .args(["--days", "3", "--seed", "1", "--snapshot"])
        .status()
        .expect("run mira-mine gen");
    assert!(gen.success(), "gen --snapshot failed");

    let want = format!("serving {d} on 127.0.0.1:");
    let flags = ["--port", "0", "--workers", "1", "--poll-ms", "50"];
    let flags_first: Vec<&str> = flags.iter().copied().chain([d]).collect();
    let dir_first: Vec<&str> = [d].into_iter().chain(flags).collect();
    for args in [flags_first, dir_first] {
        let line = banner(&args);
        assert!(line.starts_with(&want), "serve {args:?} printed {line:?}");
        // The first poll folded the committed days before the banner.
        assert!(!line.trim_end().ends_with("epoch 0)"), "{line:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
