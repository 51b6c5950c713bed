//! `clients`: scripts and dashboards querying a daemon over the full
//! archive. One closed-loop client connects, sends one burst of the
//! mixed query set, closes, and repeats. Set-up is a daemon restart over
//! the full snapshot.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bgq_serve::Client;

use crate::daemon::{self, batch_replies, check_reply};
use crate::{children_peak_rss_mb, flush_to_disk, ms, Ctx, Outcome, QUERIES, SETUP_REPEATS};

/// The daemon's poll interval. Nothing is committed during the run, so
/// it only sets how often an idle daemon re-reads its manifest; this is
/// the `mira-mine serve` default.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// Latencies seen by the closed-loop client.
#[derive(Debug, Default)]
pub struct Churn {
    /// Connect start to the first reply on a fresh connection, ms.
    pub first_reply_ms: Vec<f64>,
    /// Round trips of the burst's follow-up queries, ms.
    pub followup_ms: Vec<f64>,
}

/// Fresh connections to `addr` until `until` (and at least `min_conns`),
/// each sending one burst of [`QUERIES`] (rotated by one per connection
/// so every kind leads in turn); every reply is checked against
/// `expected`.
pub fn churn(
    addr: &str,
    until: Instant,
    min_conns: usize,
    expected: &BTreeMap<&'static str, String>,
    outcome: &mut Outcome,
) -> Churn {
    let mut out = Churn::default();
    let mut conn = 0;
    while Instant::now() < until || conn < min_conns {
        let started = Instant::now();
        let mut client = match Client::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                outcome.op(false, || format!("connect {addr}: {e}"));
                break;
            }
        };
        outcome.op(true, String::new);
        for i in 0..QUERIES.len() {
            let query = QUERIES[(conn + i) % QUERIES.len()];
            let sent = Instant::now();
            let reply = client.query(query);
            let now = Instant::now();
            if i == 0 {
                out.first_reply_ms.push(ms(now - started));
            } else {
                out.followup_ms.push(ms(now - sent));
            }
            check_reply(outcome, query, &reply, expected.get(query));
            if reply.is_err() {
                break;
            }
        }
        conn += 1;
    }
    out
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome::default();
    let snap = ctx.work.join("snapshot");
    let config = ctx.config(ctx.scale.archive_days());
    if let Err(e) = bgq_sim::generate_to_snapshot(&config, &snap) {
        outcome.op(false, || format!("write snapshot: {e}"));
        return outcome;
    }
    flush_to_disk();
    let expected = match batch_replies(&snap, 1) {
        Ok(e) => e,
        Err(e) => {
            outcome.op(false, || e);
            return outcome;
        }
    };
    let (running, setup) = daemon::setup(ctx, &snap, IDLE_POLL, &expected, &mut outcome);
    // Only the daemon stays: a worker owns a connection for its lifetime.
    let Some((daemon, _)) = running else {
        return outcome;
    };
    let until = Instant::now() + ctx.seconds;
    let seen = churn(&daemon.addr, until, 100, &expected, &mut outcome);
    drop(daemon);

    outcome.quantile_metric("setup_s", &setup, 0.5, "s");
    outcome.quantile_metric("result_p50_ms", &seen.first_reply_ms, 0.5, "ms");
    outcome.quantile_metric("result_p90_ms", &seen.first_reply_ms, 0.9, "ms");
    outcome.quantile_metric("followup_p50_ms", &seen.followup_ms, 0.5, "ms");
    outcome.metric("peak_rss_mb", children_peak_rss_mb(), "MB", SETUP_REPEATS);
    outcome
}
