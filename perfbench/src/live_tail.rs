//! `live_tail`: an operator watching a live feed. The daemon starts over
//! a year of committed history; an open-loop feed then commits one day
//! per fixed interval, and one open-loop client sends the mixed query
//! set at a fixed low rate, seeing each day's publish in the replies.
//!
//! Both schedules are fixed before the run starts, and every latency is
//! timed from when its event was due, so a stall in the daemon shows as
//! latency rather than as a slower schedule.

use std::thread;
use std::time::{Duration, Instant};

use bgq_serve::{epoch_of, Client};
use bgq_sim::LiveEmitter;

use crate::daemon::{self, batch_replies, check_reply};
use crate::{children_peak_rss_mb, flush_to_disk, ms, Ctx, Outcome, QUERIES, SETUP_REPEATS};

/// The daemon's poll interval: short next to one tick (~200 ms at a
/// year of history), so a day waits little for its poll.
pub const POLL: Duration = Duration::from_millis(10);

/// The client's query period: 200 queries/s, a low rate that still
/// sees a publish within 5 ms.
const QUERY_PERIOD: Duration = Duration::from_millis(5);

/// How long after the last day is due the client keeps looking for it.
const DRAIN: Duration = Duration::from_secs(10);

/// Closed-loop passes over the mixed query set once the daemon has
/// caught up with the feed.
const CAUGHT_UP_ROUNDS: usize = 100;

/// One open-loop query.
#[derive(Debug, Clone, Copy)]
pub struct QuerySample {
    pub due: Instant,
    pub done: Instant,
}

/// What one open-loop feed run saw.
#[derive(Debug, Default)]
pub struct FeedRun {
    /// When each fed day was due.
    pub due: Vec<Instant>,
    /// How long each `emit_next_day` took, ms.
    pub commit_ms: Vec<f64>,
    /// How late each commit started, ms.
    pub late_ms: Vec<f64>,
    /// The first reply that included each fed day.
    pub visible: Vec<Option<Instant>>,
    pub queries: Vec<QuerySample>,
}

impl FeedRun {
    /// Due time to visibility of every published day, ms.
    pub fn publish_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.visible)
            .filter_map(|(due, seen)| seen.map(|s| ms(s - *due)))
            .collect()
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        thread::sleep(t - now);
    }
}

/// `days` in a `STATS` reply.
fn stats_days(reply: &str) -> Option<usize> {
    reply
        .lines()
        .find_map(|l| l.strip_prefix("days "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Runs the open loop: a feed thread commits `days` days from `emitter`,
/// one every `interval`, while `client` sends [`QUERIES`] every
/// [`QUERY_PERIOD`]. The daemon publishes epoch `base_epoch` over
/// `base_days` days when the loop starts, and each poll that finds a new
/// day publishes the next epoch.
pub fn drive(
    client: &mut Client,
    emitter: LiveEmitter,
    (base_epoch, base_days): (u64, usize),
    days: usize,
    interval: Duration,
    outcome: &mut Outcome,
) -> FeedRun {
    let start = Instant::now() + Duration::from_millis(50);
    let due: Vec<Instant> = (1..=days).map(|k| start + interval * k as u32).collect();
    let feed = {
        let due = due.clone();
        thread::spawn(move || {
            let mut emitter = emitter;
            let (mut commit, mut late) = (Vec::new(), Vec::new());
            for at in due {
                sleep_until(at);
                let began = Instant::now();
                match emitter.emit_next_day() {
                    Ok(Some(_)) => {}
                    Ok(None) => return Err("the feed ran out of days".to_owned()),
                    Err(e) => return Err(format!("emit day: {e}")),
                }
                late.push(ms(began - at));
                commit.push(ms(began.elapsed()));
            }
            Ok((commit, late))
        })
    };

    let mut run = FeedRun {
        visible: vec![None; days],
        due,
        ..FeedRun::default()
    };
    let give_up = *run.due.last().unwrap_or(&start) + DRAIN;
    let mut next_unseen = 0;
    let mut behind = false;
    for j in 0.. {
        let at = start + QUERY_PERIOD * j;
        if next_unseen == days || at > give_up {
            break;
        }
        sleep_until(at);
        let query = QUERIES[j as usize % QUERIES.len()];
        let reply = client.query(query);
        let done = Instant::now();
        let epoch = reply.as_ref().ok().and_then(|r| epoch_of(r));
        outcome.reply(&reply, epoch.is_some(), || match &reply {
            Ok(r) => format!("{query}: not an OK frame: {:?}", r.trim_end()),
            Err(e) => format!("{query}: {e}"),
        });
        let Some(epoch) = epoch else {
            if reply.is_err() {
                break;
            }
            continue;
        };
        run.queries.push(QuerySample { due: at, done });
        let published = epoch.saturating_sub(base_epoch) as usize;
        if let Some(d) = reply.as_ref().ok().and_then(|r| stats_days(r)) {
            behind |= d != base_days + published;
        }
        while next_unseen < days.min(published) {
            run.visible[next_unseen] = Some(done);
            next_unseen += 1;
        }
    }
    outcome.op(!behind, || {
        "the daemon ingested more than one day in a poll".into()
    });

    match feed.join() {
        Ok(Ok((commit, late))) => {
            run.commit_ms = commit;
            run.late_ms = late;
        }
        Ok(Err(e)) => outcome.op(false, || e),
        Err(_) => outcome.op(false, || "the feed thread panicked".into()),
    }
    for (k, seen) in run.visible.iter().enumerate() {
        outcome.op(seen.is_some(), || {
            format!("fed day {} was never published", k + 1)
        });
    }
    let worst = run.late_ms.iter().copied().fold(0.0, f64::max);
    let limit = ms(interval);
    outcome.op(worst <= limit, || {
        format!("the feed committed {worst:.1} ms late, more than one {limit} ms interval")
    });
    run
}

/// Once the feed has ended: checks the published day count against
/// `days`, sends the mixed query set [`CAUGHT_UP_ROUNDS`] times back to
/// back, checks every reply against the batch oracle over the finished
/// directory, and returns the round trips, ms.
pub fn final_check(
    client: &mut Client,
    dir: &std::path::Path,
    days: usize,
    outcome: &mut Outcome,
) -> Vec<f64> {
    let stats = client.query("STATS");
    let published = stats.as_ref().ok().and_then(|r| stats_days(r));
    outcome.op(published == Some(days), || {
        format!("{days} days committed but {published:?} published")
    });
    // The oracle takes the daemon's epoch number so that `OK` headers
    // compare; an epoch that covered two days is `drive`'s failure.
    let Some(epoch_no) = stats.as_ref().ok().and_then(|r| epoch_of(r)) else {
        outcome.reply(&stats, false, || format!("STATS: {stats:?}"));
        return Vec::new();
    };
    let expected = match batch_replies(dir, epoch_no) {
        Ok(e) => e,
        Err(e) => {
            outcome.op(false, || e);
            return Vec::new();
        }
    };
    let mut round_trips = Vec::new();
    for _ in 0..CAUGHT_UP_ROUNDS {
        for q in QUERIES {
            let sent = Instant::now();
            let reply = client.query(q);
            round_trips.push(ms(sent.elapsed()));
            check_reply(outcome, q, &reply, expected.get(q));
        }
    }
    round_trips
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome::default();
    let (history, days, interval) = (
        ctx.scale.history_days(),
        ctx.scale.feed_days(),
        ctx.scale.feed_interval(),
    );
    let dir = ctx.work.join("live");
    let config = ctx.config((history + days) as u32);
    let mut emitter = match LiveEmitter::new(&config, &dir) {
        Ok(e) => e,
        Err(e) => {
            outcome.op(false, || format!("live emitter: {e}"));
            return outcome;
        }
    };
    if emitter.total_days() < history + days {
        outcome.op(false, || {
            format!("the trace has only {} days", emitter.total_days())
        });
        return outcome;
    }
    for _ in 0..history {
        if let Err(e) = emitter.emit_next_day() {
            outcome.op(false, || format!("emit history: {e}"));
            return outcome;
        }
    }
    flush_to_disk();
    let expected = match batch_replies(&dir, 1) {
        Ok(e) => e,
        Err(e) => {
            outcome.op(false, || e);
            return outcome;
        }
    };

    let (running, setup) = daemon::setup(ctx, &dir, POLL, &expected, &mut outcome);
    let Some((daemon, mut client)) = running else {
        return outcome;
    };

    let feed = drive(
        &mut client,
        emitter,
        (1, history),
        days,
        interval,
        &mut outcome,
    );
    let follow = final_check(&mut client, &dir, history + days, &mut outcome);
    drop(client);
    drop(daemon);

    outcome.quantile_metric("setup_s", &setup, 0.5, "s");
    let publish = feed.publish_ms();
    outcome.quantile_metric("result_p50_ms", &publish, 0.5, "ms");
    outcome.quantile_metric("result_p90_ms", &publish, 0.9, "ms");
    outcome.quantile_metric("followup_p50_ms", &follow, 0.5, "ms");
    outcome.metric("peak_rss_mb", children_peak_rss_mb(), "MB", SETUP_REPEATS);
    outcome
}
