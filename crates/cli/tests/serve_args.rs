//! `mira-mine serve` argument parsing, end to end: the daemon tails the
//! directory it was given whether the value flags come before or after
//! it, and says so in its banner.

use std::io::{BufRead, BufReader, Read};
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

/// Starts `mira-mine ARGS...`, reads its banner line (empty if the
/// daemon exits without one), then stops the daemon and returns the
/// banner with everything it wrote to stderr.
fn serve(args: &[&str]) -> (String, String) {
    let child = Command::new(BIN)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mira-mine serve");
    let mut daemon = Daemon(child);
    let stdout = daemon.0.stdout.take().expect("piped stdout");
    let mut stderr = daemon.0.stderr.take().expect("piped stderr");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read banner");
    // Killed and reaped, the daemon closes stderr, so the read ends.
    drop(daemon);
    let mut errors = String::new();
    stderr.read_to_string(&mut errors).expect("read stderr");
    (line, errors)
}

const FLAGS: [&str; 6] = ["--port", "0", "--workers", "1", "--poll-ms", "50"];

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
    let flags_first: Vec<&str> = ["--quiet", "serve"]
        .into_iter()
        .chain(FLAGS)
        .chain([d])
        .collect();
    let dir_first: Vec<&str> = ["--quiet", "serve", d].into_iter().chain(FLAGS).collect();
    for args in [flags_first, dir_first] {
        let (line, _) = serve(&args);
        assert!(line.starts_with(&want), "serve {args:?} printed {line:?}");
        // The first poll folded the committed days before the banner.
        assert!(!line.trim_end().ends_with("epoch 0)"), "{line:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A DIR that does not exist yet still starts the daemon at epoch 0 (a
/// feed may create it later) but is warned about by name; an existing
/// DIR whose feed has not written its MANIFEST yet is served silently.
#[test]
fn serve_warns_about_a_missing_directory_but_still_starts() {
    let dir = std::env::temp_dir().join(format!("bgq-cli-serve-missing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let missing = dir.join("no-feed-yet");
    for (root, warned) in [(&missing, true), (&dir, false)] {
        let d = root.to_str().expect("utf-8 temp path");
        let args: Vec<&str> = ["serve", d].into_iter().chain(FLAGS).collect();
        let (line, errors) = serve(&args);
        assert!(
            line.starts_with(&format!("serving {d} on 127.0.0.1:")),
            "serve {args:?} printed {line:?}"
        );
        assert!(line.trim_end().ends_with("epoch 0)"), "{line:?}");
        if warned {
            assert!(
                errors.starts_with("warning: ") && errors.contains(&format!("{d} does not exist")),
                "{errors:?}"
            );
        } else {
            assert_eq!(errors, "", "serve {args:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
