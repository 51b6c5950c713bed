//! The daemon under test: `mira-mine serve` in its own process, built
//! from `Ingestor`, its poll loop and `bgq_serve::start` exactly as a
//! user starts it.

use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader};
use std::os::unix::process::CommandExt as _;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use bgq_core::index::IndexBuilder;
use bgq_logs::snapshot::{self, PartitionMap};
use bgq_logs::store::LoadOptions;
use bgq_serve::{parse_query, respond, Client, Epoch, QuarantinedSegment};

use crate::{Ctx, Outcome, QUERIES, SETUP_REPEATS};

/// Worker threads: one per core of the two-core budget.
pub const WORKERS: usize = 2;

/// A running daemon; dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts the daemon over `dir` and waits for its first reply to
/// `STATS`. Returns the daemon, the client connection that got the
/// reply, the reply, and the time from spawn to that reply.
pub fn start(
    mira: &Path,
    dir: &Path,
    poll: Duration,
) -> Result<(Daemon, Client, String, Duration), String> {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    let mut cmd = Command::new(mira);
    cmd.args(["--quiet", "serve"])
        .arg(dir)
        .args(["--port", "0", "--workers", &WORKERS.to_string()])
        .args(["--poll-ms", &poll.as_millis().to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    // SAFETY: the hook runs in the forked child before exec and makes
    // one raw system call, which is async-signal-safe. It asks the
    // kernel to kill the daemon if the benchmark dies without dropping
    // it (a signal, or a timeout in whatever runs the benchmark), so no
    // daemon outlives a run.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
    let started = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", mira.display()))?;
    let mut daemon = Daemon {
        child,
        addr: String::new(),
    };
    let stdout = daemon
        .child
        .stdout
        .take()
        .ok_or("daemon stdout is not piped")?;
    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .map_err(|e| format!("read daemon banner: {e}"))?;
    // "serving DIR on ADDR (2 workers, ...)"
    daemon.addr = banner
        .rsplit_once(" on ")
        .and_then(|(_, rest)| rest.split_once(" ("))
        .map(|(addr, _)| addr.to_owned())
        .ok_or_else(|| format!("daemon did not start: {banner:?}"))?;
    let mut client = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let reply = client
        .query("STATS")
        .map_err(|e| format!("first query: {e}"))?;
    Ok((daemon, client, reply, started.elapsed()))
}

/// Starts the daemon [`SETUP_REPEATS`] times over `dir`, each a cold
/// start checked by its first `STATS` reply, and keeps the last one
/// running. Returns it with its connection, and the set-up times in
/// seconds.
pub fn setup(
    ctx: &Ctx,
    dir: &Path,
    poll: Duration,
    expected: &BTreeMap<&'static str, String>,
    outcome: &mut Outcome,
) -> (Option<(Daemon, Client)>, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        match start(&ctx.mira, dir, poll) {
            Ok((daemon, client, reply, t)) => {
                times.push(t.as_secs_f64());
                check_reply(outcome, "STATS", &Ok(reply), expected.get("STATS"));
                last = Some((daemon, client));
            }
            Err(e) => outcome.op(false, || format!("daemon start: {e}")),
        }
    }
    (last, times)
}

/// The batch oracle's replies: a cold load of `dir` and a cold epoch
/// build numbered `epoch_no` (so `OK` headers line up with the
/// daemon's), answering each query of [`QUERIES`] through `respond()`.
pub fn batch_replies(dir: &Path, epoch_no: u64) -> Result<BTreeMap<&'static str, String>, String> {
    replies(&batch_epoch(dir, epoch_no)?)
}

/// `respond()` on `epoch` for each query of [`QUERIES`].
pub fn replies(epoch: &Epoch) -> Result<BTreeMap<&'static str, String>, String> {
    QUERIES
        .iter()
        .map(|q| {
            let query = parse_query(q).map_err(|e| format!("{q}: {e}"))?;
            Ok((*q, respond(epoch, &query)))
        })
        .collect()
}

/// A cold load of `dir` rendered into an epoch numbered `epoch_no`.
pub fn batch_epoch(dir: &Path, epoch_no: u64) -> Result<Epoch, String> {
    let manifest = snapshot::read_manifest(dir).map_err(|e| format!("batch manifest: {e}"))?;
    let (ds, report) =
        snapshot::read_dir_with(dir, &daemon_load()).map_err(|e| format!("batch load: {e}"))?;
    let quarantined = report
        .quarantined_segments()
        .into_iter()
        .filter_map(|seg| {
            Some(QuarantinedSegment {
                table: seg.table,
                day: seg.day,
                reason: seg.quarantined?,
            })
        })
        .collect();
    let parts = PartitionMap::of_dataset(&ds);
    Ok(Epoch::build(
        epoch_no,
        &ds,
        &parts,
        &manifest.days,
        &manifest.availability,
        &mut IndexBuilder::new(),
        quarantined,
    ))
}

/// The load options `mira-mine serve` uses.
pub fn daemon_load() -> LoadOptions {
    LoadOptions {
        max_reject_ratio: 0.0,
        degraded: true,
        ..LoadOptions::default()
    }
}

/// Counts one reply: an `OK` frame equal to the oracle's.
pub fn check_reply(
    outcome: &mut Outcome,
    query: &str,
    reply: &std::io::Result<String>,
    expected: Option<&String>,
) {
    let ok = matches!((reply, expected), (Ok(r), Some(e)) if r == e);
    outcome.reply(reply, ok, || match reply {
        Ok(r) if r.starts_with("ERR") => format!("{query}: ERR reply {:?}", r.trim_end()),
        Ok(r) => format!("{query}: reply differs from the batch oracle: {r:?}"),
        Err(e) => format!("{query}: {e}"),
    });
}
