//! `perfbench`: the toolkit's benchmark.
//!
//! One command runs one workload against the program's public entry
//! points and prints, as its last stdout line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Without `--trace`
//! the metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones of a traced repeat of the workload (see `trace.rs`).
//!
//! ```text
//! perfbench --workload archive|live_tail|clients --seed N --seconds S --trace 0|1 [--scale full|tiny]
//! ```
//!
//! The seed only shapes the generated inputs; the program under test
//! receives nothing but those inputs. `--scale tiny` shrinks every input
//! so `selfcheck.py` can validate the output format in seconds. See
//! `NOTES.md` for why each workload exists.

mod archive;
mod clients;
mod daemon;
mod live_tail;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// The mixed query set (the same ten queries `bench_serve` cycles).
pub const QUERIES: &[&str] = &[
    "STATS",
    "MTTI",
    "MTTI FATAL",
    "RATE-BY-SCALE",
    "AFFECTED FATAL",
    "AFFECTED WARN",
    "TOPK 10",
    "USER 1",
    "USER 7",
    "USER 999999",
];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Input sizes. `Full` is the benchmark; `Tiny` exists only so the
/// output contract can be checked quickly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    /// Days of the archive trace (`archive` and `clients`).
    pub fn archive_days(self) -> u32 {
        match self {
            Scale::Full => 2001,
            Scale::Tiny => 30,
        }
    }

    /// `live_tail`: committed history the daemon starts over.
    pub fn history_days(self) -> usize {
        match self {
            Scale::Full => 365,
            Scale::Tiny => 20,
        }
    }

    /// `live_tail`: days the feed commits — enough that the p90 of
    /// publish latency has ten samples beyond it.
    pub fn feed_days(self) -> usize {
        match self {
            Scale::Full => 100,
            Scale::Tiny => 12,
        }
    }

    /// `live_tail`: one day is due every `feed_interval`. At 365 days of
    /// history one tick keeps the daemon busy for about half of it.
    pub fn feed_interval(self) -> Duration {
        match self {
            Scale::Full => Duration::from_millis(500),
            Scale::Tiny => Duration::from_millis(100),
        }
    }

    /// The traced run's feed over the archive (`archive` and `clients`
    /// have none of their own): days, and the interval between them. A
    /// tick over the full archive takes about a second.
    pub fn sweep_feed(self) -> (usize, Duration) {
        match self {
            Scale::Full => (3, Duration::from_millis(2500)),
            Scale::Tiny => (3, Duration::from_millis(100)),
        }
    }
}

/// What one run needs to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub scale: Scale,
    /// Scratch directory for this run's inputs, inside the checkout.
    pub work: PathBuf,
    /// The `mira-mine` binary built from this checkout.
    pub mira: PathBuf,
}

impl Ctx {
    /// The paper's 2001-day configuration (cut to `days`) under this
    /// run's seed.
    pub fn config(&self, days: u32) -> bgq_sim::SimConfig {
        let mut config = bgq_sim::SimConfig::mira_2k_days().with_seed(self.seed);
        config.days = days;
        config
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarises.
    pub samples: usize,
}

/// Operations attempted and failed, the failures' descriptions, and the
/// metrics of one pass over a workload.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// `ERR` frames among the replies (each also a failed operation).
    pub err_replies: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one operation; a failed one is recorded with `why`.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(why());
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    /// Records the `q` quantile of `values`. An empty sample gives NaN,
    /// which fails the run when the result is printed.
    pub fn quantile_metric(&mut self, name: &str, values: &[f64], q: f64, unit: &'static str) {
        let value = quantile(values, q).unwrap_or(f64::NAN);
        self.metric(name, value, unit, values.len());
    }

    /// Counts one reply: the operation failed unless `ok`.
    pub fn reply(
        &mut self,
        reply: &std::io::Result<String>,
        ok: bool,
        why: impl FnOnce() -> String,
    ) {
        if matches!(reply, Ok(r) if r.starts_with("ERR")) {
            self.err_replies += 1;
        }
        self.op(ok, why);
    }
}

/// Type-7 (linear interpolation) quantile, as numpy and R compute it by
/// default. `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Some(v[lo] + (h - lo as f64) * (v[hi] - v[lo]))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set, in MiB, of the largest child process this
/// process has waited for. The benchmark's children are exactly the
/// program's processes, so this is the program's peak memory, and it
/// excludes the inputs the benchmark itself holds.
pub fn children_peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the layout of Linux's `struct rusage` on
    // 64-bit targets (two `timeval`s of two `long`s, then fourteen
    // `long`s), and the pointer is to a live, writable value of it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// Writes every dirty page to disk, so that writing the next input does
/// not overlap a timed step with background writeback.
pub fn flush_to_disk() {
    extern "C" {
        fn sync();
    }
    // SAFETY: `sync(2)` takes no arguments, cannot fail, and touches no
    // memory of this process.
    unsafe { sync() }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line. Non-finite values cannot be written as JSON; they
/// mark the run incorrect instead.
fn result_line(outcome: &mut Outcome) -> String {
    let mut metrics = BTreeMap::new();
    for m in &outcome.metrics {
        metrics.insert(m.name.clone(), (m.value, m.unit));
    }
    let mut body = Vec::new();
    for (name, (value, unit)) in &metrics {
        let value = if value.is_finite() {
            *value
        } else {
            outcome.failed += 1;
            outcome
                .problems
                .push(format!("metric {name} is not finite"));
            0.0
        };
        body.push(format!(
            "{}: {{\"value\": {value:?}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        ));
    }
    let correct = outcome.failed == 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    )
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_owned()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                };
            }
            "--scale" => {
                scale = match value {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("bad --scale {value:?} (full or tiny)")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["archive", "live_tail", "clients"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (archive, live_tail, clients)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale,
    })
}

fn run(args: &Args, mira: PathBuf) -> Outcome {
    let work = Path::new(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds.max(1)),
        scale: args.scale,
        work: work.clone(),
        mira,
    };
    let outcome = match std::fs::create_dir_all(&work) {
        Ok(()) if args.trace => trace::run(&args.workload, &ctx),
        Ok(()) => match args.workload.as_str() {
            "archive" => archive::run(&ctx),
            "live_tail" => live_tail::run(&ctx),
            _ => clients::run(&ctx),
        },
        Err(e) => {
            let mut o = Outcome::default();
            o.op(false, || format!("cannot create {}: {e}", work.display()));
            o
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    outcome
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mira = match std::env::current_exe() {
        Ok(exe) => exe.with_file_name("mira-mine"),
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    if !mira.is_file() {
        eprintln!("perfbench: {} is missing (build it first)", mira.display());
        return ExitCode::from(2);
    }
    let mut outcome = run(&args, mira);
    for m in &outcome.metrics {
        eprintln!(
            "perfbench: {:<44} {:>16.6} {:<6} samples {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for p in &outcome.problems {
        eprintln!("perfbench: FAILED {p}");
    }
    let line = result_line(&mut outcome);
    println!("{line}");
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
