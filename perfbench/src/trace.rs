//! The traced run: per-layer numbers for one workload.
//!
//! It replays the workload in-process with every layer's public entry
//! point called — and timed — by the benchmark itself, over the
//! workload's own trace:
//!
//! * batch layers: CSV load, snapshot write and read, index build, the
//!   filter funnel, the three joins, the analysis (at full width and at
//!   one thread) and the per-user passes;
//! * serve layers: a daemon assembled from `Ingestor`, a poll loop the
//!   benchmark drives and times, and `bgq_serve::start`, fed by the
//!   same open loop as `live_tail`, then queried by the `clients` churn.
//!
//! Inside those calls it only reads what the program already records
//! through `bgq_obs::snapshot()`; it adds no span or counter. Every
//! workload reports every layer so traced runs are comparable; the
//! layers a workload stresses are the ones `NOTES.md` says it guards.
//! `trace.overhead_pct` compares a daemon cold start traced this way
//! with the same start of `mira-mine serve` untraced.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bgq_core::analysis::Analysis;
use bgq_core::filtering::{filter_events, FilterConfig};
use bgq_core::index::DatasetIndex;
use bgq_logs::join::{attribute_events_with, job_span_index};
use bgq_logs::snapshot::{self, SnapshotError};
use bgq_logs::store::{Dataset, LoadOptions, SourceAvailability};
use bgq_model::Severity;
use bgq_obs::Snapshot;
use bgq_serve::{epoch_of, parse_query, respond, Client, EpochStore, Ingestor, ServerOptions};
use bgq_sim::{LiveEmitter, SimOutput};
use bgq_stats::topk::SpaceSaving;

use crate::clients::churn;
use crate::daemon::{self, batch_epoch, daemon_load, replies, WORKERS};
use crate::live_tail::{drive, final_check, FeedRun, POLL};
use crate::{flush_to_disk, median, ms, us, Ctx, Outcome, SETUP_REPEATS};

/// Fresh connections the serve sweep opens after its feed.
const CHURN_CONNS: usize = 40;

/// Repetitions of each `parse_query` + `respond` timing.
const RESPOND_REPEATS: usize = 50;

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let started = Instant::now();
    let r = f();
    (ms(started.elapsed()), r)
}

/// The mean wall time of span `name` per call in `d`, ms, and its calls.
fn span_mean_ms(d: &Snapshot, name: &str) -> (f64, usize) {
    d.spans.get(name).map_or((0.0, 0), |s| {
        (s.wall_ms() / s.calls.max(1) as f64, s.calls as usize)
    })
}

pub fn run(workload: &str, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (history, days, interval) = match workload {
        "live_tail" => (
            ctx.scale.history_days(),
            ctx.scale.feed_days(),
            ctx.scale.feed_interval(),
        ),
        _ => {
            let (days, interval) = ctx.scale.sweep_feed();
            (ctx.scale.archive_days() as usize - days, days, interval)
        }
    };
    let output = bgq_sim::generate(&ctx.config((history + days) as u32));
    if let Err(e) = batch_layers(ctx, &output.dataset, &mut out) {
        out.op(false, || e);
        return out;
    }
    serve_layers(ctx, output, history, days, interval, &mut out);
    out
}

/// Times every batch layer over `ds`.
fn batch_layers(ctx: &Ctx, ds: &Dataset, out: &mut Outcome) -> Result<(), String> {
    let csv = ctx.work.join("trace-csv");
    let snap = ctx.work.join("trace-snapshot");
    ds.save_dir(&csv).map_err(|e| format!("write CSV: {e}"))?;
    flush_to_disk();

    let before = bgq_obs::snapshot();
    let (t, loaded) = timed(|| Dataset::load_dir(&csv));
    let loaded = loaded.map_err(|e| format!("CSV load: {e}"))?;
    let d = bgq_obs::snapshot().since(&before);
    out.metric("csv.load_ms", t, "ms", 1);
    out.metric("csv.rows", loaded.total_records() as f64, "count", 1);
    out.metric(
        "csv.rejected",
        d.counter_total("store.rejected") as f64,
        "count",
        1,
    );

    let (t, written) = timed(|| snapshot::write_dir(&loaded, &snap, &SourceAvailability::ALL));
    let written = written.map_err(|e| format!("snapshot write: {e}"))?;
    flush_to_disk();
    out.metric("snapshot.write_ms", t, "ms", 1);
    out.metric("snapshot.bytes_written", written.bytes as f64, "bytes", 1);
    drop(loaded);
    // The same rows written straight from the generator's dataset: the
    // gap to `snapshot.write_ms` is what `import` pays for writing a
    // dataset that was decoded from CSV.
    let from_gen = ctx.work.join("trace-snapshot-gen");
    let (t, written) = timed(|| snapshot::write_dir(ds, &from_gen, &SourceAvailability::ALL));
    written.map_err(|e| format!("snapshot write: {e}"))?;
    flush_to_disk();
    let _ = std::fs::remove_dir_all(&from_gen);
    out.metric("snapshot.write_gen_ms", t, "ms", 1);

    let (read_ms, read) = timed(|| snapshot::read_dir_with(&snap, &LoadOptions::default()));
    let (ds, report) = read.map_err(|e: SnapshotError| format!("snapshot read: {e}"))?;
    let bytes: u64 = std::fs::read_dir(&snap)
        .map_err(|e| format!("list snapshot: {e}"))?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let _ = std::fs::remove_dir_all(&csv);
    let _ = std::fs::remove_dir_all(&snap);
    out.metric("snapshot.read_ms", read_ms, "ms", 1);
    out.metric("snapshot.bytes_read", bytes as f64, "bytes", 1);
    out.metric(
        "snapshot.segments",
        report.segments.len() as f64,
        "count",
        1,
    );

    let config = FilterConfig::default();
    let build = || DatasetIndex::build_partitioned(&ds, &report.partitions, &config);
    let (build_ms, idx) = timed(build);
    out.metric("index.build_ms", build_ms, "ms", 1);
    let (t, _) = timed(|| filter_events(&ds.ras, &config));
    out.metric("filter.funnel_ms", t, "ms", 1);
    let spans = job_span_index(&ds.jobs);
    for (sev, name) in [
        (Severity::Info, "join.info_ms"),
        (Severity::Warn, "join.warn_ms"),
        (Severity::Fatal, "join.fatal_ms"),
    ] {
        let (t, _) = timed(|| attribute_events_with(&ds.jobs, &ds.ras, sev, &spans));
        out.metric(name, t, "ms", 1);
    }

    let before = bgq_obs::snapshot();
    let (run_ms, _) = timed(|| Analysis::run_indexed(&idx));
    let d = bgq_obs::snapshot().since(&before);
    drop(idx);
    out.metric("analysis.run_ms", run_ms, "ms", 1);
    for (name, stat) in &d.spans {
        if let Some(stage) = name.strip_prefix("analysis.") {
            if stage != "run" {
                let metric = format!("analysis.stage.{stage}_ms");
                out.metric(&metric, stat.wall_ms(), "ms", stat.calls as usize);
            }
        }
    }
    let idx = build();
    let (t, _) = timed(|| bgq_par::with_max_threads(1, || Analysis::run_indexed(&idx)));
    drop(idx);
    out.metric("par.analyze_1t_ms", t, "ms", 1);
    out.metric("par.speedup", t / run_ms, "x", 1);

    // The three passes of `mira-mine users`.
    let (t, _) = timed(|| bgq_core::columnar::per_user_columnar(&ds.jobs));
    out.metric("users.columnar_ms", t, "ms", 1);
    let (t, _) = timed(|| bgq_core::chains::mine_chains(&ds.jobs));
    out.metric("users.chains_ms", t, "ms", 1);
    let (t, _) = timed(|| {
        let mut waste = SpaceSaving::with_epsilon(1e-4);
        let mut fail = SpaceSaving::with_epsilon(1e-4);
        for j in ds.jobs.iter().filter(|j| j.exit_code != 0) {
            waste.update(u64::from(j.user.raw()), j.node_seconds());
            fail.update(u64::from(j.user.raw()), 1);
        }
        (waste, fail)
    });
    out.metric("users.sketch_ms", t, "ms", 1);
    Ok(())
}

/// One timed poll of the benchmark-driven poll loop.
struct Poll {
    at: Instant,
    took: Duration,
    days: usize,
}

/// Runs the daemon in-process over the first `history` days of
/// `output`, feeds it `days` more on the open loop, then churns
/// connections, and times every serve layer along the way.
fn serve_layers(
    ctx: &Ctx,
    output: SimOutput,
    history: usize,
    days: usize,
    interval: Duration,
    out: &mut Outcome,
) {
    let dir = ctx.work.join("trace-live");
    let mut emitter = match LiveEmitter::over(output, &dir) {
        Ok(e) => e,
        Err(e) => {
            out.op(false, || format!("live emitter: {e}"));
            return;
        }
    };
    for _ in 0..history {
        if let Err(e) = emitter.emit_next_day() {
            out.op(false, || format!("emit history: {e}"));
            return;
        }
    }
    flush_to_disk();

    // The tracing overhead, on the one step both runs share: a daemon
    // cold start over the history, to its first reply. Untraced, it is
    // `mira-mine serve` as a user starts it; traced, the same start in
    // this process with each layer call timed.
    let mut untraced = Vec::new();
    for _ in 0..SETUP_REPEATS {
        match daemon::start(&ctx.mira, &dir, POLL) {
            Ok((_, _, reply, t)) => {
                out.reply(&Ok(reply.clone()), epoch_of(&reply).is_some(), || {
                    format!("STATS: not an OK frame: {reply:?}")
                });
                untraced.push(ms(t));
            }
            Err(e) => out.op(false, || format!("daemon start: {e}")),
        }
    }
    let started = Instant::now();
    let store = Arc::new(EpochStore::new());
    let mut ingestor = Ingestor::new(&dir, Arc::clone(&store), daemon_load());
    if let Err(e) = ingestor.poll() {
        out.op(false, || format!("initial poll: {e}"));
        return;
    }
    let opts = ServerOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
    };
    let server = match bgq_serve::start(Arc::clone(&store), &opts) {
        Ok(s) => s,
        Err(e) => {
            out.op(false, || format!("server start: {e}"));
            return;
        }
    };
    let addr = server.addr().to_string();
    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            out.op(false, || format!("connect {addr}: {e}"));
            return;
        }
    };
    let reply = client.query("STATS");
    let traced = ms(started.elapsed());
    out.reply(
        &reply,
        reply.as_ref().ok().and_then(|r| epoch_of(r)).is_some(),
        || format!("STATS: {reply:?}"),
    );
    let overhead = median(&untraced).map_or(f64::NAN, |u| 100.0 * (traced - u) / u);
    out.metric("trace.overhead_pct", overhead, "%", untraced.len() + 1);

    let stop = Arc::new(AtomicBool::new(false));
    let poller = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut polls = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let at = Instant::now();
                let days = ingestor.poll();
                polls.push((at, at.elapsed(), days));
                thread::sleep(POLL);
            }
            polls
        })
    };

    let before = bgq_obs::snapshot();
    let feed = drive(&mut client, emitter, (1, history), days, interval, out);
    let d = bgq_obs::snapshot().since(&before);
    let _ = final_check(&mut client, &dir, history + days, out);
    drop(client);
    stop.store(true, Ordering::Relaxed);
    let polls: Vec<Poll> = match poller.join() {
        Ok(polls) => polls
            .into_iter()
            .filter_map(|(at, took, r)| match r {
                Ok(days) => Some(Poll { at, took, days }),
                Err(e) => {
                    out.op(false, || format!("poll: {e}"));
                    None
                }
            })
            .collect(),
        Err(_) => {
            out.op(false, || "the poll loop panicked".into());
            Vec::new()
        }
    };
    ingest_metrics(&feed, &polls, &d, out);

    let epoch = match batch_epoch(&dir, store.current().epoch) {
        Ok(e) => e,
        Err(e) => {
            out.op(false, || e);
            return;
        }
    };
    let expected = match replies(&epoch) {
        Ok(e) => e,
        Err(e) => {
            out.op(false, || e);
            return;
        }
    };
    let seen = churn(&addr, Instant::now(), CHURN_CONNS, &expected, out);
    let first = &seen.first_reply_ms;
    let warm = median(&seen.followup_ms).unwrap_or(f64::NAN);
    let accept_wait = median(first).unwrap_or(f64::NAN) - warm;
    out.metric("server.accept_wait_ms", accept_wait, "ms", first.len());
    out.quantile_metric("server.first_reply_p99_ms", first, 0.99, "ms");
    let follow_us: Vec<f64> = seen.followup_ms.iter().map(|ms| ms * 1e3).collect();
    out.quantile_metric("server.query_p90_us", &follow_us, 0.9, "us");
    out.quantile_metric("server.query_p99_us", &follow_us, 0.99, "us");
    let errs = out.err_replies as f64;
    out.metric("server.err_replies", errs, "count", out.attempted as usize);

    for q in [
        "USER 7",
        "MTTI",
        "RATE-BY-SCALE",
        "AFFECTED FATAL",
        "TOPK 10",
        "STATS",
    ] {
        let current = store.current();
        let mut times = Vec::with_capacity(RESPOND_REPEATS);
        let mut kind = "";
        for _ in 0..RESPOND_REPEATS {
            let started = Instant::now();
            let reply = parse_query(q).map(|query| (query.kind(), respond(&current, &query)));
            times.push(us(started.elapsed()));
            if let Ok((k, reply)) = reply {
                kind = k;
                std::hint::black_box(reply);
            }
        }
        out.quantile_metric(&format!("protocol.respond_us.{kind}"), &times, 0.5, "us");
    }

    let fresh = EpochStore::new();
    let (t, ()) = timed(|| fresh.publish(epoch));
    out.metric("epoch.publish_us", t * 1e3, "us", 1);
    drop(fresh);
    let (t, ()) = timed(|| server.shutdown());
    out.metric("server.shutdown_ms", t, "ms", 1);
}

/// The `serve.ingest`, `snapshot.load_days`, incremental index, epoch
/// and feed numbers of one feed run. `d` holds what the program
/// recorded during the feed.
fn ingest_metrics(feed: &FeedRun, polls: &[Poll], d: &Snapshot, out: &mut Outcome) {
    let ticks: Vec<&Poll> = polls.iter().filter(|p| p.days > 0).collect();
    let tick_ms: Vec<f64> = ticks.iter().map(|p| ms(p.took)).collect();
    let n = tick_ms.len();
    out.quantile_metric("ingest.poll_ms.p50", &tick_ms, 0.5, "ms");
    out.quantile_metric("ingest.poll_ms.p90", &tick_ms, 0.9, "ms");
    let publish = feed.publish_ms();
    let wait = median(&publish).unwrap_or(f64::NAN) - median(&tick_ms).unwrap_or(f64::NAN);
    out.metric("ingest.wait_ms.p50", wait, "ms", publish.len());
    let most = ticks.iter().map(|p| p.days).max().unwrap_or(0);
    out.metric("ingest.days_per_poll", most as f64, "count", n);
    out.op(most <= 1, || {
        format!("a poll ingested {most} days: the daemon fell behind")
    });
    let span = match (feed.due.first(), feed.visible.last().copied().flatten()) {
        (Some(first), Some(last)) => ms(last - *first),
        _ => f64::NAN,
    };
    out.metric(
        "ingest.busy_share",
        tick_ms.iter().sum::<f64>() / span,
        "ratio",
        n,
    );
    let idle = polls.len() - n;
    let idle_share = idle as f64 / polls.len().max(1) as f64;
    out.metric("ingest.idle_poll_share", idle_share, "ratio", polls.len());

    let (t, calls) = span_mean_ms(d, "snapshot.load_days");
    out.metric("tail.load_days_ms", t, "ms", calls);
    let (index_ms, calls) = span_mean_ms(d, "index.build.incremental");
    out.metric("index.tick_ms", index_ms, "ms", calls);
    let computed = d.counter_total("index.partition.computed");
    out.metric("index.partitions_computed", computed as f64, "count", calls);
    let reused = d.counter_total("index.partition.reused");
    out.metric("index.partitions_reused", reused as f64, "count", calls);
    let (build_ms, calls) = span_mean_ms(d, "serve.epoch.build");
    out.metric("epoch.build_ms", build_ms, "ms", calls);
    let (analysis_ms, _) = span_mean_ms(d, "analysis.run");
    out.metric(
        "epoch.extra_ms",
        build_ms - index_ms - analysis_ms,
        "ms",
        calls,
    );

    let during: Vec<f64> = feed
        .queries
        .iter()
        .filter(|q| ticks.iter().any(|p| q.due >= p.at && q.due < p.at + p.took))
        .map(|q| us(q.done - q.due))
        .collect();
    out.quantile_metric("server.query_during_build_p50_us", &during, 0.5, "us");
    out.quantile_metric("server.query_during_build_p99_us", &during, 0.99, "us");
    out.quantile_metric("feed.commit_ms", &feed.commit_ms, 0.5, "ms");
    out.quantile_metric("feed.late_ms_max", &feed.late_ms, 1.0, "ms");
}
