//! `mira-mine` command implementation.
//!
//! The binary is a thin wrapper over [`run`], which parses arguments and
//! returns the text to print — making every command unit-testable.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use bgq_core::analysis::{degraded_stages, stage_tables, Analysis, MIN_FIT_SAMPLES};
use bgq_core::exitcode::ExitClass;
use bgq_core::failure_rates::{by_scale, RateCurve};
use bgq_core::filtering::{
    interruption_stats_indexed, FilterConfig, FilterOutcome, InterruptionStats,
};
use bgq_core::fitting::{fit_by_class_indexed, ClassFit};
use bgq_core::index::DatasetIndex;
use bgq_core::jobstats::{class_breakdown_indexed, user_caused_share_indexed, DatasetTotals};
use bgq_core::report::{group_thousands, percent, Align, Table};
use bgq_core::takeaways::takeaways;
use bgq_logs::snapshot;
use bgq_logs::store::{Dataset, LoadOptions, SourceAvailability};
use bgq_model::{Severity, Span};
use bgq_obs::manifest::RunManifest;
use bgq_serve::{spawn_poller, start as serve_start, Client, EpochStore, Ingestor, ServerOptions};
use bgq_sim::{generate, generate_to_snapshot, LiveEmitter, SimConfig};

/// Errors surfaced to the user (exit code 1, message on stderr).
#[derive(Debug)]
pub enum CliError {
    /// Bad command line; the usage text is included.
    Usage(String),
    /// Dataset load/save failure.
    Store(bgq_logs::store::StoreError),
    /// Snapshot read/write failure.
    Snapshot(snapshot::SnapshotError),
    /// Serve daemon / query client network failure.
    Serve(std::io::Error),
    /// `--metrics` manifest could not be written.
    Metrics {
        /// Destination the manifest was headed for.
        path: PathBuf,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// `--trace-out` timeline could not be written.
    Trace {
        /// Destination the trace was headed for.
        path: PathBuf,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// `--baseline` manifest could not be read or parsed.
    Baseline {
        /// The baseline file.
        path: PathBuf,
        /// What went wrong (I/O or JSON shape).
        detail: String,
    },
    /// `--check` found the run over budget against the baseline.
    Regression {
        /// One line per exceeded budget.
        violations: Vec<String>,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}\n\n{USAGE}"),
            CliError::Store(e) => write!(f, "dataset error: {e}"),
            CliError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            CliError::Serve(e) => write!(f, "serve error: {e}"),
            CliError::Metrics { path, source } => {
                write!(f, "failed writing metrics to {}: {source}", path.display())
            }
            CliError::Trace { path, source } => {
                write!(f, "failed writing trace to {}: {source}", path.display())
            }
            CliError::Baseline { path, detail } => {
                write!(f, "failed reading baseline {}: {detail}", path.display())
            }
            CliError::Regression { violations } => {
                writeln!(
                    f,
                    "regression gate: FAIL ({} violation(s))",
                    violations.len()
                )?;
                for v in violations {
                    writeln!(f, "  {v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<bgq_logs::store::StoreError> for CliError {
    fn from(e: bgq_logs::store::StoreError) -> Self {
        CliError::Store(e)
    }
}

impl From<snapshot::SnapshotError> for CliError {
    fn from(e: snapshot::SnapshotError) -> Self {
        CliError::Snapshot(e)
    }
}

/// Usage text shown by `help` and on argument errors.
pub const USAGE: &str = "\
mira-mine — Mira BG/Q failure-mining toolkit (DSN 2019 reproduction)

GLOBAL FLAGS (valid before or after any command):
  --quiet                silence info/warning diagnostics on stderr
  --trace[=tree|json]    append the run's stage timings and counters to the
                         output (default: tree)
  --trace-out PATH       write a per-thread timeline of the run as Chrome
                         trace-event JSON to PATH (open in chrome://tracing
                         or Perfetto)
  --metrics PATH         write the run manifest as JSON to PATH
  --max-reject-ratio R   load datasets leniently: skip damaged CSV rows and
                         fail only when a table's reject ratio exceeds R
                         (e.g. 0.01); without it, any damaged row is fatal
  --degraded             keep going when a table is missing or too damaged:
                         quarantine it, analyze what loaded, and prefix the
                         output with DEGRADED markers naming the lost tables
                         and the analysis stages they feed

USAGE:
  mira-mine gen --out DIR [--days N] [--seed S] [--full] [--snapshot]
                [--users N [--projects P]] [--retry P]
                [--live [--interval-ms MS] [--start-days K]]
      Generate a synthetic Mira trace into DIR (jobs/ras/tasks/io CSVs).
      --days N    horizon in days (default 60)
      --seed S    RNG seed (default 1)
      --full      use the full 2001-day Mira configuration (overrides --days
                  unless --days is also given)
      --snapshot  emit a partitioned columnar snapshot instead of CSVs
                  (one binary segment per day per table; loads ~instantly)
      --users N   size of the Zipf user population (with --projects P to
                  also set the project count; default derives from N)
      --retry P   probability in [0,1] that a user-caused failure is
                  resubmitted (chained via the resubmit_of column;
                  default 0 = retries off, byte-identical to older traces)
      --live      emit the trace as a live snapshot feed: commit the first
                  --start-days day partitions immediately (default 1), then
                  append one day every --interval-ms milliseconds (default
                  1000; 0 = as fast as possible). Each tick writes the
                  day's segments first and appends the MANIFEST line last,
                  so a concurrent `serve` daemon only ever sees committed
                  days. The finished directory is byte-identical to
                  `gen --snapshot`.

  mira-mine import SRC DEST
      Load a CSV trace from SRC and write it as a partitioned columnar
      snapshot into DEST. Honors --max-reject-ratio / --degraded; a table
      quarantined at load time is recorded as unavailable in the snapshot
      manifest rather than silently written empty.

  mira-mine analyze DIR
      Load a trace from DIR and print its summary: totals, exit classes,
      the user-caused share, failure rate by scale, per-class length
      fits, the filter funnel with the filtered MTBF, and the MTTI. Only
      the stages behind those values run, and a snapshot load decodes
      only its jobs and RAS tables (`report` runs every stage). DIR may
      hold CSVs or a snapshot (detected by its MANIFEST); every other
      command that reads a trace auto-detects the format the same way.

  mira-mine report DIR
      Load a trace from DIR and print the 22 re-derived takeaways.

  mira-mine filter DIR [--gap-mins G] [--window-hours W]
      Print the fatal-event filtering funnel and MTBF per stage.

  mira-mine lifetime DIR [--window-days N]
      Print the reliability evolution across the trace (default 90-day
      windows).

  mira-mine predict DIR
      Run the precursor-based fatal-incident predictor and print its
      precision/recall/lead-time evaluation.

  mira-mine users DIR [--top K] [--epsilon E]
      Mine the per-user behavior layer: columnar per-user aggregation,
      retry-chain statistics (chain lengths, eventual success, give-up
      rate, resubmit gaps, wasted work), and streaming heavy hitters by
      wasted core-hours and failure count.
      --top K      rows per heavy-hitter table (default 10)
      --epsilon E  space-saving sketch error bound as a fraction of the
                   total weight (default 0.0001; counters used = 1/E)

  mira-mine profile [DIR] [--days N] [--seed S]
                    [--baseline PATH [--check[=BUDGETS]]]
      Run the full indexed analysis under instrumentation and print the
      hottest pipeline stages. Without DIR, profiles a simulated trace
      (default 30 days, seed 1). Combine with --metrics to capture the
      run manifest as JSON.
      --baseline PATH  compare this run against a manifest previously
                       written by --metrics and print the drift report
      --check[=BUDGETS]
                       with --baseline: exit nonzero when the drift
                       exceeds budget. BUDGETS is key=value pairs from
                       wall (max total wall-time ratio, default 1.5),
                       counter (max counter drift, default 0 = exact),
                       alloc (max alloc.* drift, default 0.25); a value
                       of `off` disables that gate. Counters are
                       deterministic, wall time is machine-dependent —
                       cross-machine gates should pass wall=off.

  mira-mine serve DIR [--port P] [--workers N] [--poll-ms MS]
      Run the always-on analysis daemon over the snapshot directory DIR.
      The daemon tails DIR's MANIFEST (O(new days) per poll), folds each
      day `gen --live` commits into running totals of the served values,
      and publishes each consistent view as an epoch-swapped snapshot —
      queries never block on ingestion and always see a complete epoch.
      Answers a line protocol over TCP: USER <id>, MTTI [SEV],
      RATE-BY-SCALE, AFFECTED <SEV>, TOPK <k>, STATS. Corrupt segments
      are quarantined per table (load is always degraded-tolerant) and
      surfaced in STATS. Runs until killed.
      --port P     TCP port on 127.0.0.1 (default 7411; 0 = ephemeral)
      --workers N  query worker threads (default 4); a worker owns an
                   established connection for its lifetime, so size this
                   to the expected concurrent clients
      --poll-ms MS manifest poll interval (default 200)

  mira-mine query ADDR QUERY...
      Send one or more protocol queries to a running serve daemon at
      ADDR (host:port) over a single connection and print the framed
      replies, e.g.: mira-mine query 127.0.0.1:7411 STATS \"MTTI FATAL\"

  mira-mine help
      Show this message.";

fn parse_flag(args: &[String], name: &str) -> Result<Option<String>, CliError> {
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == name {
            return match iter.next() {
                Some(v) => Ok(Some(v.clone())),
                None => Err(CliError::Usage(format!("{name} requires a value"))),
            };
        }
    }
    Ok(None)
}

fn parse_num<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, CliError> {
    match parse_flag(args, name)? {
        None => Ok(None),
        Some(raw) => raw
            .parse::<T>()
            .map(Some)
            .map_err(|_| CliError::Usage(format!("invalid value for {name}: {raw:?}"))),
    }
}

/// How `--trace` renders the collected observability data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Tree,
    Json,
}

/// Global flags shared by every command, stripped before dispatch.
#[derive(Debug, Default)]
struct GlobalOpts {
    quiet: bool,
    trace: Option<TraceFormat>,
    trace_out: Option<PathBuf>,
    metrics: Option<PathBuf>,
    max_reject_ratio: Option<f64>,
    degraded: bool,
}

/// Separates the global flags from the command-specific arguments.
fn split_global_flags(args: &[String]) -> Result<(Vec<String>, GlobalOpts), CliError> {
    let mut rest = Vec::new();
    let mut opts = GlobalOpts::default();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--quiet" => opts.quiet = true,
            "--degraded" => opts.degraded = true,
            "--trace" | "--trace=tree" => opts.trace = Some(TraceFormat::Tree),
            "--trace=json" => opts.trace = Some(TraceFormat::Json),
            "--metrics" => match iter.next() {
                Some(v) => opts.metrics = Some(PathBuf::from(v)),
                None => return Err(CliError::Usage("--metrics requires a path".into())),
            },
            "--trace-out" => match iter.next() {
                Some(v) => opts.trace_out = Some(PathBuf::from(v)),
                None => return Err(CliError::Usage("--trace-out requires a path".into())),
            },
            "--max-reject-ratio" => match iter.next() {
                Some(v) => {
                    let ratio: f64 = v.parse().map_err(|_| {
                        CliError::Usage(format!("invalid value for --max-reject-ratio: {v:?}"))
                    })?;
                    if !(0.0..=1.0).contains(&ratio) {
                        return Err(CliError::Usage(
                            "--max-reject-ratio must be between 0 and 1".into(),
                        ));
                    }
                    opts.max_reject_ratio = Some(ratio);
                }
                None => {
                    return Err(CliError::Usage(
                        "--max-reject-ratio requires a value".into(),
                    ))
                }
            },
            other if other.starts_with("--trace=") => {
                return Err(CliError::Usage(format!(
                    "unknown trace format {:?} (expected tree or json)",
                    &other["--trace=".len()..]
                )))
            }
            _ => rest.push(a.clone()),
        }
    }
    Ok((rest, opts))
}

/// Parses and executes a command line (without the program name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] for malformed invocations,
/// [`CliError::Store`] when the dataset cannot be read or written, and
/// [`CliError::Metrics`] when a `--metrics` manifest cannot be written.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (rest, opts) = split_global_flags(args)?;
    if opts.quiet {
        bgq_obs::set_verbosity(bgq_obs::Verbosity::Quiet);
    }
    // Scoped bgq-par workers must flush their thread-local trace buffers
    // before the scope joins them (TLS destructors alone can run too
    // late — see bgq_obs::trace); the epilogue hook is how.
    bgq_par::set_worker_epilogue(bgq_obs::trace::flush_thread);
    if opts.trace_out.is_some() {
        bgq_obs::trace::enable();
    }
    let before = bgq_obs::snapshot();
    let result = match rest.first().map(String::as_str) {
        Some("gen") => cmd_gen(&rest[1..]),
        Some("import") => cmd_import(&rest[1..], &opts),
        Some("analyze") => cmd_analyze(&rest[1..], &opts),
        Some("report") => cmd_report(&rest[1..], &opts),
        Some("filter") => cmd_filter(&rest[1..], &opts),
        Some("lifetime") => cmd_lifetime(&rest[1..], &opts),
        Some("predict") => cmd_predict(&rest[1..], &opts),
        Some("users") => cmd_users(&rest[1..], &opts),
        Some("profile") => cmd_profile(&rest[1..], &opts),
        Some("serve") => cmd_serve(&rest[1..], &opts),
        Some("query") => cmd_query(&rest[1..]),
        Some("help") | None => Ok(USAGE.to_owned()),
        Some(other) => Err(CliError::Usage(format!("unknown command {other:?}"))),
    };
    match result {
        Ok(mut out) => {
            emit_observability(&before, args, &opts, &mut out, None)?;
            Ok(out)
        }
        Err(err) => {
            // A failed run still writes its telemetry — a truncated
            // manifest/timeline is exactly what debugging the failure
            // needs. The original error wins over any emission error.
            let mut discarded = String::new();
            if let Err(obs_err) =
                emit_observability(&before, args, &opts, &mut discarded, Some(&err))
            {
                bgq_obs::error!("{obs_err}");
            }
            Err(err)
        }
    }
}

/// Appends/writes the run manifest when `--trace` / `--metrics` ask for
/// it, and the Chrome trace timeline when `--trace-out` does. Runs on
/// success *and* failure (`error` carries the failure, recorded in the
/// manifest's meta), so degraded and failed runs still leave telemetry.
fn emit_observability(
    before: &bgq_obs::Snapshot,
    args: &[String],
    opts: &GlobalOpts,
    out: &mut String,
    error: Option<&CliError>,
) -> Result<(), CliError> {
    if let Some(path) = &opts.trace_out {
        bgq_obs::trace::disable();
        let events = bgq_obs::trace::take();
        let json = bgq_obs::trace::to_chrome_json(&events);
        std::fs::write(path, json).map_err(|source| CliError::Trace {
            path: path.clone(),
            source,
        })?;
    }
    if opts.trace.is_none() && opts.metrics.is_none() {
        return Ok(());
    }
    let mut manifest = RunManifest::new(bgq_obs::snapshot().since(before))
        .with_meta("command", format!("mira-mine {}", args.join(" ")))
        .with_meta("threads", bgq_par::max_workers().to_string())
        .with_meta("status", if error.is_some() { "error" } else { "ok" });
    if let Some(e) = error {
        manifest = manifest.with_meta("error", e.to_string());
    }
    match opts.trace {
        Some(TraceFormat::Tree) => {
            out.push('\n');
            out.push_str(&manifest.to_tree());
        }
        Some(TraceFormat::Json) => {
            out.push('\n');
            out.push_str(&manifest.to_json());
        }
        None => {}
    }
    if let Some(path) = &opts.metrics {
        std::fs::write(path, manifest.to_json()).map_err(|source| CliError::Metrics {
            path: path.clone(),
            source,
        })?;
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<String, CliError> {
    let out_dir: PathBuf = parse_flag(args, "--out")?
        .ok_or_else(|| CliError::Usage("gen requires --out DIR".into()))?
        .into();
    let days: Option<u32> = parse_num(args, "--days")?;
    let seed: u64 = parse_num(args, "--seed")?.unwrap_or(1);
    let full = args.iter().any(|a| a == "--full");
    let mut config = if full {
        SimConfig::mira_2k_days()
    } else {
        SimConfig::small(days.unwrap_or(60))
    };
    if let Some(d) = days {
        config.days = d;
    }
    config = config.with_seed(seed);
    if let Some(users) = parse_num::<u32>(args, "--users")? {
        // One project per ~10 users unless told otherwise, floored so a
        // tiny population still has somewhere to charge its jobs.
        let projects: u32 = parse_num(args, "--projects")?.unwrap_or((users / 10).max(1));
        config = config.with_users(users, projects);
    } else if parse_flag(args, "--projects")?.is_some() {
        return Err(CliError::Usage("--projects requires --users".into()));
    }
    if let Some(retry) = parse_num::<f64>(args, "--retry")? {
        if !(0.0..=1.0).contains(&retry) {
            return Err(CliError::Usage("--retry must be between 0 and 1".into()));
        }
        config = config.with_retries(retry);
    }
    if let Err(msg) = config.validate() {
        return Err(CliError::Usage(format!("invalid generation config: {msg}")));
    }
    if args.iter().any(|a| a == "--live") {
        return cmd_gen_live(args, &config, &out_dir);
    }
    let (output, snapshot_stats) = if args.iter().any(|a| a == "--snapshot") {
        let (output, stats) = generate_to_snapshot(&config, &out_dir)?;
        (output, Some(stats))
    } else {
        let output = generate(&config);
        output.dataset.save_dir(&out_dir)?;
        (output, None)
    };
    let mut out = format!(
        "wrote {} jobs, {} RAS events, {} tasks, {} I/O profiles to {}",
        group_thousands(output.dataset.jobs.len() as u64),
        group_thousands(output.dataset.ras.len() as u64),
        group_thousands(output.dataset.tasks.len() as u64),
        group_thousands(output.dataset.io.len() as u64),
        out_dir.display()
    );
    if let Some(stats) = snapshot_stats {
        out.push_str(&format!(
            " ({} snapshot segments over {} days, {} bytes)",
            stats.segments,
            stats.days,
            group_thousands(stats.bytes)
        ));
    }
    Ok(out)
}

/// `gen --live`: drives a [`LiveEmitter`], committing day partitions on
/// an interval so a concurrent `serve` daemon has something to tail.
fn cmd_gen_live(args: &[String], config: &SimConfig, out_dir: &Path) -> Result<String, CliError> {
    let interval_ms: u64 = parse_num(args, "--interval-ms")?.unwrap_or(1000);
    let start_days: usize = parse_num(args, "--start-days")?.unwrap_or(1);
    let mut emitter = LiveEmitter::new(config, out_dir)?;
    let total = emitter.total_days();
    while emitter.remaining_days() > 0 {
        if emitter.emitted_days() >= start_days && interval_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
        if let Some((day, stats)) = emitter.emit_next_day()? {
            bgq_obs::info!(
                "live: committed day {day} ({}/{total}, {} segments, {} bytes)",
                emitter.emitted_days(),
                stats.segments,
                stats.bytes
            );
        }
    }
    let ds = &emitter.output().dataset;
    Ok(format!(
        "live emission complete: {} day partitions ({} jobs, {} RAS events, {} tasks, {} I/O profiles) to {}",
        total,
        group_thousands(ds.jobs.len() as u64),
        group_thousands(ds.ras.len() as u64),
        group_thousands(ds.tasks.len() as u64),
        group_thousands(ds.io.len() as u64),
        out_dir.display()
    ))
}

/// `serve DIR`: the always-on analysis daemon. Never returns (runs
/// until the process is killed).
fn cmd_serve(args: &[String], opts: &GlobalOpts) -> Result<String, CliError> {
    let dir: PathBuf = positional(args, &["--port", "--workers", "--poll-ms"])
        .ok_or_else(|| CliError::Usage("serve requires a snapshot DIR".into()))?
        .into();
    let port: u16 = parse_num(args, "--port")?.unwrap_or(7411);
    let workers: usize = parse_num(args, "--workers")?.unwrap_or(4);
    let poll_ms: u64 = parse_num(args, "--poll-ms")?.unwrap_or(200);
    // A live daemon always quarantines faults instead of dying on them;
    // --max-reject-ratio still tunes row-level leniency.
    let load = LoadOptions {
        max_reject_ratio: opts.max_reject_ratio.unwrap_or(0.0),
        degraded: true,
    };
    // A feed may create DIR only after generating its trace, so a
    // missing DIR is served as epoch 0 like a missing MANIFEST, but a
    // mistyped path must not pass for a healthy idle daemon.
    if !dir.exists() {
        bgq_obs::warn!(
            "serve: {} does not exist; serving epoch 0 until a feed creates it",
            dir.display()
        );
    }
    let store = std::sync::Arc::new(EpochStore::new());
    let mut ingestor = Ingestor::new(&dir, std::sync::Arc::clone(&store), load);
    // First poll happens before the socket opens so the daemon never
    // answers from the empty epoch when data is already committed. A
    // missing MANIFEST is fine (epoch 0 until the feed appears); real
    // manifest corruption is fatal at startup.
    ingestor.poll()?;
    let handle = serve_start(
        std::sync::Arc::clone(&store),
        &ServerOptions {
            addr: format!("127.0.0.1:{port}"),
            workers,
        },
    )
    .map_err(CliError::Serve)?;
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let _poller = spawn_poller(
        ingestor,
        std::time::Duration::from_millis(poll_ms.max(1)),
        std::sync::Arc::clone(&stop),
    );
    // The banner goes straight to stdout: `run` only prints on return,
    // and a daemon never returns.
    println!(
        "serving {} on {} ({} workers, poll {poll_ms}ms, epoch {})",
        dir.display(),
        handle.addr(),
        workers.max(1),
        store.current().epoch
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

/// `query ADDR QUERY...`: one connection, framed replies verbatim.
fn cmd_query(args: &[String]) -> Result<String, CliError> {
    let (addr, queries) = match args.split_first() {
        Some((addr, rest)) if !rest.is_empty() => (addr, rest),
        _ => {
            return Err(CliError::Usage(
                "query requires ADDR and at least one QUERY".into(),
            ))
        }
    };
    let mut client = Client::connect(addr).map_err(CliError::Serve)?;
    let mut out = String::new();
    for q in queries {
        out.push_str(&client.query(q).map_err(CliError::Serve)?);
    }
    // Replies end in \n already; strip the final one since `run`'s
    // caller appends a newline on print.
    if out.ends_with('\n') {
        out.pop();
    }
    Ok(out)
}

/// `import SRC DEST`: re-encodes a trace as a partitioned snapshot.
fn cmd_import(args: &[String], opts: &GlobalOpts) -> Result<String, CliError> {
    let mut dirs = args.iter().filter(|a| !a.starts_with("--"));
    let (src, dest) = match (dirs.next(), dirs.next(), dirs.next()) {
        (Some(s), Some(d), None) => (PathBuf::from(s), PathBuf::from(d)),
        _ => {
            return Err(CliError::Usage(
                "import requires SRC and DEST directories".into(),
            ))
        }
    };
    let (ds, avail) = load_dataset(&src, &snapshot::TABLES, opts)?;
    let stats = snapshot::write_dir(&ds, &dest, &avail)?;
    let mut out = degraded_banner(&avail);
    out.push_str(&format!(
        "imported {} -> {}: {} segments over {} days, {} bytes",
        src.display(),
        dest.display(),
        stats.segments,
        stats.days,
        group_thousands(stats.bytes)
    ));
    Ok(out)
}

/// The first positional argument, skipping flags and their values.
fn positional<'a>(args: &'a [String], value_flags: &[&str]) -> Option<&'a String> {
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if value_flags.iter().any(|f| f == a) {
            iter.next();
        } else if !a.starts_with("--") {
            return Some(a);
        }
    }
    None
}

/// What `load_dataset` hands every command: the dataset and what
/// survived loading.
type LoadedDataset = (Dataset, SourceAvailability);

fn load(args: &[String], tables: &[&str], opts: &GlobalOpts) -> Result<LoadedDataset, CliError> {
    let dir = positional(args, &["--gap-mins", "--window-hours", "--window-days"])
        .ok_or_else(|| CliError::Usage("missing dataset directory".into()))?;
    load_dataset(Path::new(dir), tables, opts)
}

/// Loads a dataset with a reject ceiling of `--max-reject-ratio` (zero
/// without it: any damaged row fails the load). Damaged rows under the
/// ceiling are skipped and counted; the per-table totals land in the run
/// manifest via the store's counters. Under `--degraded` a missing or
/// over-damaged table is quarantined and reported via the returned
/// [`SourceAvailability`] instead of failing the run, so without
/// `--max-reject-ratio` one damaged row quarantines its table.
///
/// A directory holding a snapshot MANIFEST is loaded through the
/// columnar snapshot path (the reject ceiling is enforced per segment),
/// which decodes only the `tables` the command reads: the others stay
/// empty, and damage in their segments goes unseen. A table the MANIFEST
/// marks unavailable still fails the load, or is quarantined under
/// `--degraded`, named or not. Anything else goes through the CSV store,
/// which loads all four tables.
fn load_dataset(dir: &Path, tables: &[&str], opts: &GlobalOpts) -> Result<LoadedDataset, CliError> {
    let load_opts = LoadOptions {
        max_reject_ratio: opts.max_reject_ratio.unwrap_or(0.0),
        degraded: opts.degraded,
    };
    if snapshot::is_snapshot_dir(dir) {
        let (ds, report) = snapshot::read_tables_with(dir, tables, &load_opts)?;
        return Ok((ds, report.load.availability()));
    }
    let (ds, report) = Dataset::load_dir_with(dir, &load_opts)?;
    Ok((ds, report.availability()))
}

/// The full analysis that `report` and `profile` print from: the index
/// build, every stage, and the load-time quarantine markers. Returns the
/// index too, for callers that query it further.
fn run_analysis<'a>(ds: &'a Dataset, avail: &SourceAvailability) -> (DatasetIndex<'a>, Analysis) {
    let idx = DatasetIndex::build(ds);
    let analysis = Analysis::run_indexed(&idx).mark_degraded(avail);
    (idx, analysis)
}

/// A `DEGRADED:` banner naming quarantined tables, or empty when the
/// load was complete.
fn degraded_banner(avail: &SourceAvailability) -> String {
    if avail.is_complete() {
        String::new()
    } else {
        format!(
            "DEGRADED: table(s) unavailable: {} — results cover the surviving records only\n\n",
            avail.missing().join(", ")
        )
    }
}

/// The tables `analyze` reads: those its printed stages read per
/// `STAGE_SOURCES`. A snapshot load decodes no other.
const ANALYZE_TABLES: [&str; 2] = ["jobs", "ras"];

/// What `analyze` prints. Each value comes from the stage function that
/// computes the [`Analysis`] field of the same name; `filter` is the
/// index's own funnel.
struct Summary<'i> {
    totals: Option<DatasetTotals>,
    class_breakdown: BTreeMap<ExitClass, usize>,
    user_caused_share: Option<f64>,
    rate_by_scale: RateCurve,
    class_fits: Vec<ClassFit>,
    filter: &'i FilterOutcome,
    interruptions: InterruptionStats,
}

impl<'i> Summary<'i> {
    /// Runs only the printed stages, the class fits beside the job
    /// sweeps, under the span names `Analysis::run_indexed` gives them.
    /// `by_scale` runs untimed: its timer there, `analysis.rates`, spans
    /// all four rate curves.
    fn compute(idx: &'i DatasetIndex<'_>) -> Self {
        let (
            class_fits,
            (totals, class_breakdown, user_caused_share, rate_by_scale, interruptions),
        ) = bgq_par::join(
            || {
                bgq_obs::time("analysis.fit.by_class", || {
                    fit_by_class_indexed(idx, MIN_FIT_SAMPLES)
                })
            },
            || {
                (
                    bgq_obs::time("analysis.jobs.totals", || DatasetTotals::compute(idx.jobs)),
                    bgq_obs::time("analysis.class_breakdown", || class_breakdown_indexed(idx)),
                    bgq_obs::time("analysis.user_caused_share", || {
                        user_caused_share_indexed(idx)
                    }),
                    by_scale(idx.jobs),
                    bgq_obs::time("analysis.interruptions", || interruption_stats_indexed(idx)),
                )
            },
        );
        Summary {
            totals,
            class_breakdown,
            user_caused_share,
            rate_by_scale,
            class_fits,
            filter: &idx.filter,
            interruptions,
        }
    }
}

fn cmd_analyze(args: &[String], opts: &GlobalOpts) -> Result<String, CliError> {
    let (ds, avail) = load(args, &ANALYZE_TABLES, opts)?;
    let idx = DatasetIndex::build(&ds);
    let a = Summary::compute(&idx);
    let mut out = String::new();
    let degraded = degraded_stages(&avail);
    if !degraded.is_empty() {
        out.push_str(&format!(
            "DEGRADED: table(s) unavailable: {}; affected stages: {}\n\n",
            avail.missing().join(", "),
            degraded
                .iter()
                .map(|d| d.stage)
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }

    if let Some(t) = &a.totals {
        out.push_str(&format!(
            "trace: {} jobs / {:.0} days / {:.3e} core-hours / {} users / {} projects\n\n",
            group_thousands(t.jobs as u64),
            t.span_days(),
            t.core_hours,
            t.users,
            t.projects
        ));
    } else {
        out.push_str("trace is empty\n");
        return Ok(out);
    }

    let mut classes = Table::new(
        vec![
            "class".into(),
            "jobs".into(),
            "share".into(),
            "attribution".into(),
        ],
        vec![Align::Left, Align::Right, Align::Right, Align::Left],
    );
    let total: usize = a.class_breakdown.values().sum();
    for (class, count) in &a.class_breakdown {
        classes.row(vec![
            class.to_string(),
            group_thousands(*count as u64),
            percent(*count as f64 / total as f64),
            class
                .attribution()
                .map(|x| x.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    out.push_str("exit classes:\n");
    out.push_str(&classes.render());
    if let Some(share) = a.user_caused_share {
        out.push_str(&format!(
            "user-caused share of failures: {}\n",
            percent(share)
        ));
    }

    let mut scale = Table::new(
        vec!["nodes".into(), "jobs".into(), "fail-rate".into()],
        vec![Align::Right, Align::Right, Align::Right],
    );
    for b in &a.rate_by_scale.buckets {
        scale.row(vec![
            b.label.clone(),
            group_thousands(b.jobs as u64),
            percent(b.rate()),
        ]);
    }
    out.push_str("\nfailure rate by scale:\n");
    out.push_str(&scale.render());

    if !a.class_fits.is_empty() {
        let mut fits = Table::new(
            vec!["class".into(), "n".into(), "best fit".into(), "KS D".into()],
            vec![Align::Left, Align::Right, Align::Left, Align::Right],
        );
        for f in &a.class_fits {
            if let Some(best) = f.best() {
                fits.row(vec![
                    f.class.to_string(),
                    f.n.to_string(),
                    best.dist.to_string(),
                    format!("{:.4}", best.ks_statistic),
                ]);
            }
        }
        out.push_str("\nbest-fit execution-length distribution per class:\n");
        out.push_str(&fits.render());
    }

    out.push_str(&format!(
        "\nfilter funnel: {} raw FATAL -> {} temporal -> {} spatial -> {} incidents\n",
        a.filter.raw_fatal,
        a.filter.after_temporal,
        a.filter.after_spatial,
        a.filter.after_similarity
    ));
    if let Some(mtbf) = a.filter.mtbf_days(a.filter.after_similarity) {
        out.push_str(&format!("filtered MTBF: {mtbf:.2} days\n"));
    }
    if let Some(mtti) = a.interruptions.mtti_days {
        out.push_str(&format!(
            "mean time to interruption: {mtti:.2} days ({} interrupted jobs)\n",
            a.interruptions.interrupted_jobs
        ));
    }
    Ok(out)
}

fn cmd_report(args: &[String], opts: &GlobalOpts) -> Result<String, CliError> {
    let (ds, avail) = load(args, &stage_tables(), opts)?;
    let (_, a) = run_analysis(&ds, &avail);
    let mut out = degraded_banner(&avail);
    out.push_str("The 22 takeaways, re-derived from this trace:\n\n");
    for t in takeaways(&a) {
        out.push_str(&format!("[T{:02}] {}\n", t.id, t.statement));
    }
    Ok(out)
}

fn cmd_filter(args: &[String], opts: &GlobalOpts) -> Result<String, CliError> {
    let (ds, avail) = load(args, &["ras"], opts)?;
    let mut config = FilterConfig::default();
    if let Some(gap) = parse_num::<i64>(args, "--gap-mins")? {
        config.temporal_gap = Span::from_mins(gap);
    }
    if let Some(window) = parse_num::<i64>(args, "--window-hours")? {
        config.similarity_window = Span::from_hours(window);
    }
    let outcome = bgq_core::filtering::filter_events(&ds.ras, &config);
    let mut table = Table::new(
        vec!["stage".into(), "clusters".into(), "MTBF (days)".into()],
        vec![Align::Left, Align::Right, Align::Right],
    );
    let fmt_mtbf = |n: usize| {
        outcome
            .mtbf_days(n)
            .map(|d| format!("{d:.2}"))
            .unwrap_or_else(|| "-".into())
    };
    table.row(vec![
        "raw FATAL".into(),
        outcome.raw_fatal.to_string(),
        fmt_mtbf(outcome.raw_fatal),
    ]);
    table.row(vec![
        "temporal".into(),
        outcome.after_temporal.to_string(),
        fmt_mtbf(outcome.after_temporal),
    ]);
    table.row(vec![
        "spatial".into(),
        outcome.after_spatial.to_string(),
        fmt_mtbf(outcome.after_spatial),
    ]);
    table.row(vec![
        "similarity".into(),
        outcome.after_similarity.to_string(),
        fmt_mtbf(outcome.after_similarity),
    ]);
    Ok(degraded_banner(&avail) + &table.render())
}

fn cmd_lifetime(args: &[String], opts: &GlobalOpts) -> Result<String, CliError> {
    let (ds, avail) = load(args, &["jobs", "ras"], opts)?;
    let window: u32 = parse_num(args, "--window-days")?.unwrap_or(90);
    if window == 0 {
        return Err(CliError::Usage("--window-days must be positive".into()));
    }
    let series = bgq_core::lifetime::lifetime_series(&ds.jobs, &ds.ras, window);
    let mut table = Table::new(
        vec![
            "window start".into(),
            "jobs".into(),
            "fail-rate".into(),
            "system kills".into(),
            "fatal records".into(),
        ],
        vec![
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ],
    );
    for w in &series.windows {
        table.row(vec![
            w.start.to_string(),
            group_thousands(w.jobs as u64),
            percent(w.failure_rate()),
            w.system_kills.to_string(),
            group_thousands(w.fatal_records as u64),
        ]);
    }
    let mut out = degraded_banner(&avail) + &table.render();
    if let Some(r) = series.early_to_late_fatal_ratio {
        out.push_str(&format!(
            "\nearly-to-late fatal-record ratio: {r:.2} (> 1 means reliability improved)\n"
        ));
    }
    Ok(out)
}

fn cmd_predict(args: &[String], opts: &GlobalOpts) -> Result<String, CliError> {
    use bgq_core::filtering::{filter_events, FilterConfig};
    use bgq_core::prediction::{predict_and_evaluate, PredictorConfig};
    let (ds, avail) = load(args, &["ras"], opts)?;
    let incidents = filter_events(&ds.ras, &FilterConfig::default()).incidents;
    let report = predict_and_evaluate(&ds.ras, &incidents, &PredictorConfig::default());
    let mut table = Table::new(
        vec!["metric".into(), "value".into()],
        vec![Align::Left, Align::Right],
    );
    table.row(vec![
        "alarms raised".into(),
        report.alarms.len().to_string(),
    ]);
    table.row(vec!["true alarms".into(), report.true_alarms.to_string()]);
    table.row(vec!["incidents".into(), report.total_incidents.to_string()]);
    table.row(vec![
        "predicted incidents".into(),
        report.predicted_incidents.to_string(),
    ]);
    table.row(vec![
        "precision".into(),
        report
            .precision()
            .map(percent)
            .unwrap_or_else(|| "n/a".into()),
    ]);
    table.row(vec![
        "recall".into(),
        report.recall().map(percent).unwrap_or_else(|| "n/a".into()),
    ]);
    table.row(vec![
        "mean lead time".into(),
        report
            .mean_lead_s
            .map(|s| format!("{:.0} min", s / 60.0))
            .unwrap_or_else(|| "n/a".into()),
    ]);
    Ok(degraded_banner(&avail) + &table.render())
}

/// `users DIR`: the million-user behavior layer — columnar per-user
/// aggregation, retry-chain mining, and streaming heavy hitters.
fn cmd_users(args: &[String], opts: &GlobalOpts) -> Result<String, CliError> {
    use bgq_stats::topk::SpaceSaving;

    let k: usize = parse_num(args, "--top")?.unwrap_or(10);
    let epsilon: f64 = parse_num(args, "--epsilon")?.unwrap_or(1e-4);
    if !(epsilon > 0.0 && epsilon <= 1.0) {
        return Err(CliError::Usage("--epsilon must be in (0, 1]".into()));
    }
    let dir = positional(args, &["--top", "--epsilon"])
        .ok_or_else(|| CliError::Usage("users requires a dataset directory".into()))?;
    let (ds, avail) = load_dataset(Path::new(dir), &["jobs"], opts)?;
    let _span = bgq_obs::span!("cli.users");

    let rows = bgq_obs::time("cli.users.columnar", || {
        bgq_core::columnar::per_user_columnar(&ds.jobs)
    });
    let chains = bgq_obs::time("cli.users.chains", || {
        bgq_core::chains::mine_chains(&ds.jobs)
    });
    let (by_waste, by_fail) = bgq_obs::time("cli.users.sketch", || {
        let mut waste = SpaceSaving::with_epsilon(epsilon);
        let mut fail = SpaceSaving::with_epsilon(epsilon);
        for j in ds.jobs.iter().filter(|j| j.exit_code != 0) {
            waste.update(u64::from(j.user.raw()), j.node_seconds());
            fail.update(u64::from(j.user.raw()), 1);
        }
        (waste, fail)
    });

    let ns_to_ch = |ns: u64| ns as f64 * 16.0 / 3_600.0;
    let mut out = degraded_banner(&avail);
    out.push_str(&format!(
        "{} jobs across {} distinct users\n\n",
        group_thousands(ds.jobs.len() as u64),
        group_thousands(rows.len() as u64),
    ));

    let mut activity = Table::new(
        vec![
            "user".into(),
            "jobs".into(),
            "failed".into(),
            "core-hours".into(),
        ],
        vec![Align::Right, Align::Right, Align::Right, Align::Right],
    );
    for r in rows.iter().take(k) {
        activity.row(vec![
            r.id.to_string(),
            group_thousands(r.jobs as u64),
            group_thousands(r.failed as u64),
            format!("{:.1}", r.core_hours),
        ]);
    }
    out.push_str(&format!("top {k} users by job count:\n"));
    out.push_str(&activity.render());

    for (title, sketch, fmt) in [
        (
            "wasted core-hours (failed jobs)",
            &by_waste,
            &(|n: u64| format!("{:.1}", ns_to_ch(n))) as &dyn Fn(u64) -> String,
        ),
        (
            "failure count",
            &by_fail,
            &(|n: u64| group_thousands(n)) as &dyn Fn(u64) -> String,
        ),
    ] {
        let mut table = Table::new(
            vec!["user".into(), "estimate".into(), "at least".into()],
            vec![Align::Right, Align::Right, Align::Right],
        );
        for h in sketch.top(k) {
            table.row(vec![h.key.to_string(), fmt(h.count), fmt(h.guaranteed())]);
        }
        out.push_str(&format!(
            "\ntop {k} users by {title} (streaming sketch, ε = {epsilon}):\n"
        ));
        out.push_str(&table.render());
    }

    out.push_str(&format!(
        "\nretry chains: {} chains / {} linked resubmissions / {} dangling links\n",
        group_thousands(chains.chains as u64),
        group_thousands(chains.linked_jobs as u64),
        group_thousands(chains.dangling_links as u64),
    ));
    if chains.linked_jobs == 0 {
        out.push_str("no resubmission lineage in this trace\n");
        return Ok(out);
    }
    let mut lengths = Table::new(
        vec![
            "chain length".into(),
            "chains".into(),
            "eventually succeeded".into(),
        ],
        vec![Align::Right, Align::Right, Align::Right],
    );
    for row in &chains.success_by_length {
        lengths.row(vec![
            row.length.to_string(),
            group_thousands(row.chains),
            percent(row.succeeded as f64 / row.chains as f64),
        ]);
    }
    out.push_str("eventual success by chain length:\n");
    out.push_str(&lengths.render());
    if let Some(rate) = chains.give_up_rate {
        out.push_str(&format!(
            "give-up rate among failed chains: {}\n",
            percent(rate)
        ));
    }
    if let (Some(p50), Some(p90), Some(p99)) = (
        chains.gap_hist.p50(),
        chains.gap_hist.p90(),
        chains.gap_hist.p99(),
    ) {
        out.push_str(&format!(
            "failure-to-resubmit gap: p50 {}s / p90 {}s / p99 {}s\n",
            group_thousands(p50),
            group_thousands(p90),
            group_thousands(p99),
        ));
    }
    out.push_str(&format!(
        "wasted work inside retried chains: {:.1} core-hours\n",
        ns_to_ch(chains.wasted_node_seconds),
    ));
    Ok(out)
}

/// A cheap, stable identity for "the dataset this run analyzed": record
/// counts plus first/last timestamps per table, FNV-1a folded.
#[must_use]
pub fn dataset_fingerprint(ds: &Dataset) -> u64 {
    let mut h = bgq_obs::fnv::Fnv64::new();
    h.write_u64(ds.jobs.len() as u64);
    h.write_u64(ds.ras.len() as u64);
    h.write_u64(ds.tasks.len() as u64);
    h.write_u64(ds.io.len() as u64);
    if let (Some(first), Some(last)) = (ds.jobs.first(), ds.jobs.last()) {
        h.write_i64(first.started_at.as_secs());
        h.write_i64(last.ended_at.as_secs());
        h.write_u64(first.job_id.raw());
        h.write_u64(last.job_id.raw());
    }
    if let (Some(first), Some(last)) = (ds.ras.first(), ds.ras.last()) {
        h.write_i64(first.event_time.as_secs());
        h.write_i64(last.event_time.as_secs());
    }
    h.finish()
}

/// The `--check[=BUDGETS]` flag: `None` when absent, `Some(spec)` when
/// present (`spec` is empty for the bare form — all default budgets).
fn parse_check_flag(args: &[String]) -> Option<String> {
    args.iter().find_map(|a| {
        if a == "--check" {
            Some(String::new())
        } else {
            a.strip_prefix("--check=").map(str::to_owned)
        }
    })
}

fn cmd_profile(args: &[String], opts: &GlobalOpts) -> Result<String, CliError> {
    let days: u32 = parse_num(args, "--days")?.unwrap_or(30);
    let seed: u64 = parse_num(args, "--seed")?.unwrap_or(1);
    let baseline_path: Option<PathBuf> = parse_flag(args, "--baseline")?.map(PathBuf::from);
    let check = parse_check_flag(args);
    if check.is_some() && baseline_path.is_none() {
        return Err(CliError::Usage("--check requires --baseline PATH".into()));
    }
    let budgets = match &check {
        Some(spec) => Some(bgq_obs::diff::Budgets::parse(spec).map_err(CliError::Usage)?),
        None => None,
    };
    let dir = positional(args, &["--days", "--seed", "--baseline"]);

    let before = bgq_obs::snapshot();
    let ((ds, avail), source) = match dir {
        Some(d) => (
            load_dataset(Path::new(d), &stage_tables(), opts)?,
            d.clone(),
        ),
        None => (
            (
                generate(&SimConfig::small(days).with_seed(seed)).dataset,
                SourceAvailability::ALL,
            ),
            format!("simulated ({days} days, seed {seed})"),
        ),
    };
    let fingerprint = dataset_fingerprint(&ds);
    bgq_obs::gauge_set("dataset.fingerprint", fingerprint);
    bgq_obs::gauge_set("run.threads", bgq_par::max_workers() as u64);

    let (idx, analysis) = run_analysis(&ds, &avail);
    // Memo probe: run_indexed already built the Warn join for the
    // user-correlation stage; this second consumer must hit the memo,
    // which shows up as `index.join.memo_hit{warn}` in the manifest.
    let _ = bgq_core::ras_analysis::affected_jobs_indexed(&idx, Severity::Warn);
    let delta = bgq_obs::snapshot().since(&before);

    let mut out = degraded_banner(&avail);
    out += &format!(
        "profiled {} — {} jobs, {} RAS events (fingerprint {fingerprint:016x})\n\n",
        source,
        group_thousands(ds.jobs.len() as u64),
        group_thousands(ds.ras.len() as u64),
    );
    let profile = RunManifest::new(delta);
    // Allocation columns only when the build tracked allocations
    // (`obs-alloc` feature) — empty columns would just be noise.
    let has_alloc = profile
        .snapshot
        .counters
        .keys()
        .any(|(name, _)| name == "alloc.allocs");
    let mut headers = vec![
        "stage".to_owned(),
        "calls".into(),
        "wall (ms)".into(),
        "mean (ms)".into(),
        "p99 (ms)".into(),
    ];
    let mut aligns = vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ];
    if has_alloc {
        headers.extend(["allocs".to_owned(), "alloc KiB".into()]);
        aligns.extend([Align::Right, Align::Right]);
    }
    let mut table = Table::new(headers, aligns);
    for (name, stat) in profile.hot_stages() {
        let p99 = profile
            .snapshot
            .span_hist(name)
            .and_then(bgq_obs::Histogram::p99)
            .map_or_else(|| "-".into(), |ns| format!("{:.3}", ns as f64 / 1e6));
        let mut row = vec![
            name.to_owned(),
            stat.calls.to_string(),
            format!("{:.3}", stat.wall_ms()),
            format!("{:.3}", stat.wall_ms() / stat.calls.max(1) as f64),
            p99,
        ];
        if has_alloc {
            row.push(group_thousands(
                profile.snapshot.counter("alloc.allocs", name),
            ));
            row.push(group_thousands(
                profile.snapshot.counter("alloc.bytes", name) / 1024,
            ));
        }
        table.row(row);
    }
    out.push_str("hottest stages (wall time summed across threads):\n");
    out.push_str(&table.render());

    if !profile.snapshot.hists.is_empty() {
        out.push_str(
            "\ndata distributions (p50/p90/p99 within 6.25% above the true order statistic):\n",
        );
        for ((name, label), h) in &profile.snapshot.hists {
            let key = if label.is_empty() {
                name.clone()
            } else {
                format!("{name}{{{label}}}")
            };
            out.push_str(&format!(
                "  {key}: n={} p50={} p90={} p99={}\n",
                group_thousands(h.count()),
                h.p50().unwrap_or(0),
                h.p90().unwrap_or(0),
                h.p99().unwrap_or(0),
            ));
        }
    }

    out.push_str(&format!(
        "\nfilter funnel: {} raw FATAL -> {} temporal -> {} spatial -> {} incidents\n",
        analysis.filter.raw_fatal,
        analysis.filter.after_temporal,
        analysis.filter.after_spatial,
        analysis.filter.after_similarity,
    ));
    let candidates = profile.snapshot.counter("join.candidates", "");
    let emitted = profile.snapshot.counter("join.emitted", "");
    if candidates > 0 {
        out.push_str(&format!(
            "job/RAS join: {} candidate pairs -> {} attributed\n",
            group_thousands(candidates),
            group_thousands(emitted),
        ));
    }
    for ((name, label), builds) in &profile.snapshot.counters {
        if name == "index.join.memo_miss" {
            let hits = profile.snapshot.counter("index.join.memo_hit", label);
            out.push_str(&format!(
                "join memo ({label}): built {builds}x, reused {hits}x\n"
            ));
        }
    }

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path).map_err(|e| CliError::Baseline {
            path: path.clone(),
            detail: e.to_string(),
        })?;
        let baseline = RunManifest::from_json(&text).map_err(|e| CliError::Baseline {
            path: path.clone(),
            detail: e,
        })?;
        let diff = profile.diff(&baseline);
        out.push_str(&format!("\nbaseline: {}\n", path.display()));
        out.push_str(&diff.report());
        if let Some(budgets) = budgets {
            let violations = diff.check(&budgets);
            if violations.is_empty() {
                out.push_str("regression gate: PASS\n");
            } else {
                return Err(CliError::Regression {
                    violations: violations.iter().map(ToString::to_string).collect(),
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mira-cli-{tag}-{}", std::process::id()))
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// `run` reads the process-global bgq-obs collector (`profile`
    /// diffs it, `--metrics` and `--baseline` export it), so the tests
    /// that call it hold this lock: another test's counters must not
    /// land inside a run's window.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn help_and_unknown_commands() {
        let _obs = lock();
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&s(&["help"])).unwrap().contains("mira-mine gen"));
        let err = run(&s(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn gen_requires_out() {
        let _obs = lock();
        let err = run(&s(&["gen"])).unwrap_err();
        assert!(err.to_string().contains("--out"));
    }

    #[test]
    fn gen_analyze_report_filter_pipeline() {
        let _obs = lock();
        let dir = temp_dir("pipeline");
        let dir_str = dir.to_str().unwrap();
        let msg = run(&s(&["gen", "--out", dir_str, "--days", "8", "--seed", "3"])).unwrap();
        assert!(msg.contains("wrote"), "{msg}");

        let analysis = run(&s(&["analyze", dir_str])).unwrap();
        assert!(analysis.contains("exit classes"), "{analysis}");
        assert!(analysis.contains("failure rate by scale"));
        assert!(analysis.contains("filter funnel"));

        let report = run(&s(&["report", dir_str])).unwrap();
        assert_eq!(report.matches("[T").count(), 22, "{report}");

        let filtered = run(&s(&["filter", dir_str, "--gap-mins", "30"])).unwrap();
        assert!(filtered.contains("similarity"));

        let lifetime = run(&s(&["lifetime", dir_str, "--window-days", "4"])).unwrap();
        assert!(lifetime.contains("fail-rate"), "{lifetime}");

        let predict = run(&s(&["predict", dir_str])).unwrap();
        assert!(predict.contains("precision"), "{predict}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_gen_import_and_analyze_parity() {
        let _obs = lock();
        let csv_dir = temp_dir("snap-csv");
        let snap_dir = temp_dir("snap-bin");
        let import_dir = temp_dir("snap-imported");
        let csv_str = csv_dir.to_str().unwrap().to_owned();
        let snap_str = snap_dir.to_str().unwrap().to_owned();
        let import_str = import_dir.to_str().unwrap().to_owned();

        // Same config through both persistence paths.
        run(&s(&[
            "gen", "--out", &csv_str, "--days", "8", "--seed", "3",
        ]))
        .unwrap();
        let msg = run(&s(&[
            "gen",
            "--out",
            &snap_str,
            "--days",
            "8",
            "--seed",
            "3",
            "--snapshot",
        ]))
        .unwrap();
        assert!(msg.contains("snapshot segments"), "{msg}");
        assert!(snap_dir.join("MANIFEST").is_file());

        // Golden parity: every command renders the same text over CSVs
        // and over the snapshot.
        for cmdline in [
            vec!["analyze"],
            vec!["report"],
            vec!["filter", "--gap-mins", "30"],
            vec!["lifetime", "--window-days", "4"],
            vec!["predict"],
            vec!["users", "--top", "5"],
        ] {
            let mut via_csv = cmdline.clone();
            via_csv.push(&csv_str);
            let mut via_snap = cmdline.clone();
            via_snap.push(&snap_str);
            assert_eq!(
                run(&s(&via_csv)).unwrap(),
                run(&s(&via_snap)).unwrap(),
                "{cmdline:?} diverged between CSV and snapshot"
            );
        }

        // import re-encodes the CSVs into an equivalent snapshot.
        let msg = run(&s(&["import", &csv_str, &import_str])).unwrap();
        assert!(msg.contains("imported"), "{msg}");
        assert_eq!(
            run(&s(&["analyze", &import_str])).unwrap(),
            run(&s(&["analyze", &csv_str])).unwrap(),
        );

        for d in [&csv_dir, &snap_dir, &import_dir] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn users_command_mines_chains_and_heavy_hitters() {
        let _obs = lock();
        let dir = temp_dir("users-cmd");
        let dir_str = dir.to_str().unwrap().to_owned();
        run(&s(&[
            "gen", "--out", &dir_str, "--days", "8", "--seed", "3", "--users", "300", "--retry",
            "0.6",
        ]))
        .unwrap();
        let out = run(&s(&["users", &dir_str, "--top", "5"])).unwrap();
        assert!(out.contains("distinct users"), "{out}");
        assert!(out.contains("top 5 users by job count"), "{out}");
        assert!(out.contains("streaming sketch"), "{out}");
        assert!(out.contains("retry chains:"), "{out}");
        assert!(
            out.contains("eventual success by chain length"),
            "retries at 0.6 must leave lineage: {out}"
        );
        assert!(out.contains("failure-to-resubmit gap"), "{out}");

        // A retry-free trace reports the absence rather than a table.
        let clean = temp_dir("users-clean");
        let clean_str = clean.to_str().unwrap().to_owned();
        run(&s(&[
            "gen", "--out", &clean_str, "--days", "6", "--seed", "3",
        ]))
        .unwrap();
        let out = run(&s(&["users", &clean_str])).unwrap();
        assert!(out.contains("no resubmission lineage"), "{out}");

        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&clean).unwrap();
    }

    #[test]
    fn users_flag_validation() {
        let _obs = lock();
        let err = run(&s(&["users"])).unwrap_err();
        assert!(err.to_string().contains("dataset directory"), "{err}");
        let err = run(&s(&["users", "/d", "--epsilon", "0"])).unwrap_err();
        assert!(err.to_string().contains("--epsilon"), "{err}");
    }

    #[test]
    fn gen_population_flag_validation() {
        let _obs = lock();
        let dir = temp_dir("gen-flags");
        let dir_str = dir.to_str().unwrap();
        let err = run(&s(&["gen", "--out", dir_str, "--retry", "1.5"])).unwrap_err();
        assert!(err.to_string().contains("--retry"), "{err}");
        let err = run(&s(&["gen", "--out", dir_str, "--projects", "5"])).unwrap_err();
        assert!(err.to_string().contains("--users"), "{err}");
    }

    #[test]
    fn import_requires_two_directories() {
        let _obs = lock();
        let err = run(&s(&["import", "/only-one"])).unwrap_err();
        assert!(err.to_string().contains("SRC and DEST"), "{err}");
    }

    #[test]
    fn degraded_snapshot_load_survives_a_deleted_segment() {
        let _obs = lock();
        let dir = temp_dir("snap-degraded");
        let dir_str = dir.to_str().unwrap().to_owned();
        run(&s(&[
            "gen",
            "--out",
            &dir_str,
            "--days",
            "6",
            "--seed",
            "9",
            "--snapshot",
        ]))
        .unwrap();
        // Delete one day's RAS segment: strict fails, --degraded carries on.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with("-ras.seg"))
            })
            .expect("a ras segment");
        std::fs::remove_file(&seg).unwrap();

        let err = run(&s(&["analyze", &dir_str])).unwrap_err();
        assert!(matches!(err, CliError::Snapshot(_)), "{err}");

        let out = run(&s(&["--quiet", "--degraded", "analyze", &dir_str])).unwrap();
        assert!(out.contains("exit classes"), "{out}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_snapshot_commands_ignore_damage_in_tables_they_do_not_read() {
        let _obs = lock();
        let dir = temp_dir("snap-unread");
        let dir_str = dir.to_str().unwrap().to_owned();
        run(&s(&[
            "gen",
            "--out",
            &dir_str,
            "--days",
            "6",
            "--seed",
            "9",
            "--snapshot",
        ]))
        .unwrap();
        let users = run(&s(&["users", &dir_str])).unwrap();
        let analysis = run(&s(&["analyze", &dir_str])).unwrap();
        let day = snapshot::read_manifest(&dir).unwrap().days[0];
        // No analysis stage reads tasks, and `users` reads only jobs.
        std::fs::remove_file(snapshot::segment_path(&dir, "tasks", day)).unwrap();
        assert_eq!(run(&s(&["analyze", &dir_str])).unwrap(), analysis);
        // No stage `analyze` prints reads I/O; `report` still does.
        let io = snapshot::segment_path(&dir, "io", day);
        let bytes = std::fs::read(&io).unwrap();
        std::fs::write(&io, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(run(&s(&["analyze", &dir_str])).unwrap(), analysis);
        let err = run(&s(&["report", &dir_str])).unwrap_err();
        assert!(matches!(err, CliError::Snapshot(_)), "{err}");
        std::fs::remove_file(snapshot::segment_path(&dir, "ras", day)).unwrap();
        assert_eq!(run(&s(&["users", &dir_str])).unwrap(), users);
        // A command that reads the damaged table still refuses it.
        let err = run(&s(&["filter", &dir_str])).unwrap_err();
        assert!(matches!(err, CliError::Snapshot(_)), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Each value `analyze` prints equals the [`Analysis`] field it
    /// stands in for, bit for bit.
    fn assert_summary_matches_the_full_analysis(ds: &Dataset) {
        let idx = DatasetIndex::build(ds);
        let s = Summary::compute(&idx);
        let a = Analysis::run_indexed(&idx);
        assert_eq!(s.totals, a.totals);
        assert_eq!(s.class_breakdown, a.class_breakdown);
        assert_eq!(
            s.user_caused_share.map(f64::to_bits),
            a.user_caused_share.map(f64::to_bits)
        );
        assert_eq!(s.rate_by_scale, a.rate_by_scale);
        assert_eq!(
            s.rate_by_scale.spearman_rho.map(f64::to_bits),
            a.rate_by_scale.spearman_rho.map(f64::to_bits)
        );
        assert_eq!(format!("{:?}", s.class_fits), format!("{:?}", a.class_fits));
        assert_eq!(*s.filter, a.filter);
        assert_eq!(s.interruptions, a.interruptions);
    }

    #[test]
    fn analyze_prints_the_full_analysis_values() {
        let _obs = lock();
        let ds = generate(&SimConfig::small(10).with_seed(5)).dataset;
        let idx = DatasetIndex::build(&ds);
        let s = Summary::compute(&idx);
        assert!(s.class_fits.len() >= 2, "{:?}", s.class_fits);
        assert!(s.rate_by_scale.buckets.len() >= 2 && s.interruptions.mtti_days.is_some());
        bgq_par::with_max_threads(1, || assert_summary_matches_the_full_analysis(&ds));
        assert_summary_matches_the_full_analysis(&ds);
        assert_summary_matches_the_full_analysis(&Dataset::new());
    }

    #[test]
    fn analyze_reads_the_tables_of_the_stages_it_prints() {
        let printed = [
            "totals",
            "class_breakdown",
            "user_caused_share",
            "rate_by_scale",
            "class_fits",
            "filter",
            "interruptions",
        ];
        let tables: Vec<&str> = snapshot::TABLES
            .into_iter()
            .filter(|t| {
                bgq_core::analysis::STAGE_SOURCES
                    .iter()
                    .any(|(stage, sources)| printed.contains(stage) && sources.contains(t))
            })
            .collect();
        assert_eq!(tables, ANALYZE_TABLES);
    }

    #[test]
    fn a_repeated_manifest_day_is_a_snapshot_error() {
        let _obs = lock();
        let dir = temp_dir("snap-repeat");
        let dir_str = dir.to_str().unwrap().to_owned();
        run(&s(&[
            "gen",
            "--out",
            &dir_str,
            "--days",
            "6",
            "--seed",
            "1",
            "--snapshot",
        ]))
        .unwrap();
        let path = dir.join(snapshot::MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let day = format!("day {}\n", snapshot::read_manifest(&dir).unwrap().days[2]);
        std::fs::write(&path, text.replace(&day, &format!("{day}{day}"))).unwrap();
        // Read as two days, the repeated one would count its jobs twice.
        let err = run(&s(&["users", &dir_str])).unwrap_err();
        assert!(matches!(err, CliError::Snapshot(_)), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn analyze_missing_dir_is_store_error() {
        let _obs = lock();
        let err = run(&s(&["analyze", "/nonexistent/mira-data"])).unwrap_err();
        assert!(matches!(err, CliError::Store(_)));
    }

    #[test]
    fn bad_numeric_flag_is_usage_error() {
        let _obs = lock();
        let dir = temp_dir("badnum");
        let err = run(&s(&[
            "gen",
            "--out",
            dir.to_str().unwrap(),
            "--days",
            "soon",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn bad_global_flags_are_usage_errors() {
        let _obs = lock();
        for bad in [
            &["--trace=xml", "help"][..],
            &["--metrics"],
            &["--max-reject-ratio"],
            &["--max-reject-ratio", "1.5", "help"],
            &["--max-reject-ratio", "lots", "help"],
        ] {
            let err = run(&s(bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}");
        }
    }

    #[test]
    fn profile_runs_on_a_simulated_trace() {
        let _obs = lock();
        let out = run(&s(&["profile", "--days", "5", "--seed", "7"])).unwrap();
        assert!(out.contains("profiled simulated (5 days, seed 7)"), "{out}");
        assert!(out.contains("fingerprint"), "{out}");
        assert!(out.contains("analysis.run"), "{out}");
        assert!(out.contains("filter funnel:"), "{out}");
        assert!(out.contains("join memo (warn)"), "{out}");
    }

    #[test]
    fn metrics_flag_writes_a_json_manifest() {
        let _obs = lock();
        let path = temp_dir("metrics").with_extension("json");
        let out = run(&s(&[
            "profile",
            "--days",
            "4",
            "--metrics",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("profiled"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        for key in [
            "\"meta\"",
            "\"spans\"",
            "\"counters\"",
            "\"gauges\"",
            "\"command\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("analysis.run"), "{json}");
        assert!(json.contains("filter.funnel"), "{json}");
        assert!(json.contains("index.join.memo_hit"), "{json}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn metrics_unwritable_path_is_a_metrics_error() {
        let _obs = lock();
        let err = run(&s(&[
            "profile",
            "--days",
            "3",
            "--metrics",
            "/nonexistent-dir/manifest.json",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Metrics { .. }), "{err}");
    }

    #[test]
    fn trace_flag_appends_stage_tree() {
        let _obs = lock();
        let out = run(&s(&["--trace", "profile", "--days", "3"])).unwrap();
        assert!(out.contains("command: mira-mine --trace profile"), "{out}");
        assert!(
            out.contains("stages (wall time summed across threads):"),
            "{out}"
        );
    }

    #[test]
    fn global_flags_parse_in_any_position() {
        let (rest, opts) =
            split_global_flags(&s(&["analyze", "--degraded", "--quiet", "/d"])).unwrap();
        assert!(opts.degraded && opts.quiet);
        assert!(opts.trace.is_none() && opts.metrics.is_none());
        assert_eq!(rest, vec!["analyze".to_owned(), "/d".to_owned()]);

        let (rest, opts) = split_global_flags(&s(&[
            "--max-reject-ratio",
            "0.25",
            "--trace=json",
            "report",
            "/d",
        ]))
        .unwrap();
        assert_eq!(opts.max_reject_ratio, Some(0.25));
        assert_eq!(opts.trace, Some(TraceFormat::Json));
        assert!(!opts.degraded && !opts.quiet);
        assert_eq!(rest, vec!["report".to_owned(), "/d".to_owned()]);

        let (rest, opts) =
            split_global_flags(&s(&["--metrics", "/tmp/m.json", "--trace", "profile"])).unwrap();
        assert_eq!(opts.metrics.as_deref(), Some(Path::new("/tmp/m.json")));
        assert_eq!(opts.trace, Some(TraceFormat::Tree));
        assert_eq!(rest, vec!["profile".to_owned()]);
    }

    #[test]
    fn degraded_flag_survives_a_deleted_table() {
        let _obs = lock();
        let dir = temp_dir("degraded");
        let dir_str = dir.to_str().unwrap().to_owned();
        run(&s(&[
            "gen", "--out", &dir_str, "--days", "6", "--seed", "9",
        ]))
        .unwrap();
        std::fs::remove_file(dir.join("ras.csv")).unwrap();

        // Strict and merely-lenient loads still fail on a missing table.
        let err = run(&s(&["analyze", &dir_str])).unwrap_err();
        assert!(matches!(err, CliError::Store(_)), "{err}");
        let err = run(&s(&["--max-reject-ratio", "0.5", "analyze", &dir_str])).unwrap_err();
        assert!(matches!(err, CliError::Store(_)), "{err}");

        // --degraded quarantines the table and flags what it feeds.
        let out = run(&s(&["--quiet", "--degraded", "analyze", &dir_str])).unwrap();
        assert!(out.contains("DEGRADED: table(s) unavailable: ras"), "{out}");
        assert!(out.contains("affected stages:"), "{out}");
        assert!(out.contains("exit classes"), "{out}");

        let report = run(&s(&["--quiet", "--degraded", "report", &dir_str])).unwrap();
        assert!(report.starts_with("DEGRADED"), "{report}");
        assert!(report.contains("[T01]"), "{report}");

        let filter = run(&s(&["--quiet", "--degraded", "filter", &dir_str])).unwrap();
        assert!(filter.starts_with("DEGRADED"), "{filter}");
        assert!(filter.contains("raw FATAL"), "{filter}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Generates a 6-day CSV trace into `dir` and mangles its first
    /// `jobs.csv` data row so strict loading fails. Returns the number of
    /// job rows left intact.
    fn gen_with_one_damaged_job_row(dir: &Path) -> usize {
        let dir_str = dir.to_str().unwrap();
        run(&s(&["gen", "--out", dir_str, "--days", "6", "--seed", "5"])).unwrap();
        let jobs_path = dir.join("jobs.csv");
        let text = std::fs::read_to_string(&jobs_path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 2, "need at least one data row");
        let mangled = "this is not a valid job record at all".to_owned();
        lines[1] = &mangled;
        std::fs::write(&jobs_path, lines.join("\n")).unwrap();
        lines.len() - 2
    }

    #[test]
    fn lenient_load_tolerates_a_damaged_row() {
        let _obs = lock();
        let dir = temp_dir("lenient");
        let dir_str = dir.to_str().unwrap().to_owned();
        gen_with_one_damaged_job_row(&dir);

        let err = run(&s(&["analyze", &dir_str])).unwrap_err();
        assert!(matches!(err, CliError::Store(_)), "{err}");

        let out = run(&s(&[
            "--quiet",
            "--max-reject-ratio",
            "0.05",
            "analyze",
            &dir_str,
        ]))
        .unwrap();
        assert!(out.contains("exit classes"), "{out}");

        // A zero ceiling turns the same damage back into an error.
        let err = run(&s(&["--max-reject-ratio", "0", "analyze", &dir_str])).unwrap_err();
        assert!(err.to_string().contains("reject"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_csv_load_fails_as_a_zero_reject_ceiling() {
        let _obs = lock();
        let dir = temp_dir("strict-csv");
        let dir_str = dir.to_str().unwrap().to_owned();
        let intact = gen_with_one_damaged_job_row(&dir);

        // No flag is a zero ceiling: the same load fails the same way.
        let plain = run(&s(&["--quiet", "analyze", &dir_str])).unwrap_err();
        let zero = run(&s(&[
            "--quiet",
            "--max-reject-ratio",
            "0",
            "analyze",
            &dir_str,
        ]))
        .unwrap_err();
        assert_eq!(plain.to_string(), zero.to_string());
        let want = format!("table jobs: 1 of {} rows rejected", intact + 1);
        assert!(plain.to_string().contains(&want), "{plain}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_csv_load_quarantines_a_damaged_table() {
        let _obs = lock();
        let dir = temp_dir("degraded-row");
        let dir_str = dir.to_str().unwrap().to_owned();
        let intact = gen_with_one_damaged_job_row(&dir);

        // Without --max-reject-ratio the ceiling is zero, as for snapshot
        // loads: one damaged row quarantines the table.
        let out = run(&s(&["--quiet", "--degraded", "analyze", &dir_str])).unwrap();
        let banner = "DEGRADED: table(s) unavailable: jobs";
        assert!(out.starts_with(banner), "{out}");

        // An explicit ceiling skips the row and keeps the rest.
        let out = run(&s(&[
            "--quiet",
            "--degraded",
            "--max-reject-ratio",
            "0.05",
            "analyze",
            &dir_str,
        ]))
        .unwrap();
        assert!(!out.contains("DEGRADED"), "{out}");
        let trace = format!("trace: {} jobs", group_thousands(intact as u64));
        assert!(out.starts_with(&trace), "{out}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_out_writes_chrome_trace_json() {
        let _obs = lock();
        let path = temp_dir("traceout").with_extension("json");
        run(&s(&[
            "--trace-out",
            path.to_str().unwrap(),
            "profile",
            "--days",
            "3",
            "--seed",
            "2",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = bgq_obs::json::parse(&text).unwrap();
        assert_eq!(
            doc.get("displayTimeUnit").and_then(|v| v.as_str()),
            Some("ms")
        );
        let events = doc.get("traceEvents").unwrap().items();
        // Begin/end events nest per thread: every E closes the span
        // the tid's stack has on top. (Spans still open at export —
        // e.g. from concurrently running tests — legitimately leave
        // unmatched B's, so stacks need not drain to empty.)
        let mut stacks: std::collections::HashMap<u64, Vec<String>> =
            std::collections::HashMap::new();
        let mut our_begins = 0;
        for ev in events {
            let name = ev.get("name").and_then(|v| v.as_str()).unwrap().to_owned();
            let tid = ev
                .get("tid")
                .and_then(bgq_obs::json::JsonValue::as_u64)
                .unwrap();
            assert!(ev
                .get("ts")
                .and_then(bgq_obs::json::JsonValue::as_f64)
                .is_some());
            match ev.get("ph").and_then(|v| v.as_str()) {
                Some("B") => {
                    if name == "analysis.run" {
                        our_begins += 1;
                    }
                    stacks.entry(tid).or_default().push(name);
                }
                Some("E") => {
                    let top = stacks.entry(tid).or_default().pop();
                    assert_eq!(top.as_deref(), Some(name.as_str()), "tid {tid}");
                }
                other => panic!("unexpected ph {other:?}"),
            }
        }
        assert!(our_begins >= 1, "profile run should trace analysis.run");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trace_out_requires_a_path() {
        let _obs = lock();
        let err = run(&s(&["--trace-out"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn check_without_baseline_is_a_usage_error() {
        let _obs = lock();
        let err = run(&s(&["profile", "--days", "3", "--check"])).unwrap_err();
        assert!(err.to_string().contains("--baseline"), "{err}");
        let err = run(&s(&[
            "profile",
            "--days",
            "3",
            "--baseline",
            "/nonexistent.json",
            "--check=walls=2",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn regression_gate_passes_clean_and_fails_doctored_baseline() {
        let _obs = lock();
        let base = temp_dir("gate-base").with_extension("json");
        run(&s(&[
            "--metrics",
            base.to_str().unwrap(),
            "profile",
            "--days",
            "4",
            "--seed",
            "7",
        ]))
        .unwrap();

        // Clean re-run against its own baseline: counters are
        // seed-deterministic and schedule-independent, so the exact
        // counter gate passes; wall time is machine noise, so gate it
        // off (alloc too — per-stage attribution is schedule-dependent).
        let out = run(&s(&[
            "profile",
            "--days",
            "4",
            "--seed",
            "7",
            "--baseline",
            base.to_str().unwrap(),
            "--check=wall=off,alloc=off",
        ]))
        .unwrap();
        assert!(out.contains("regression gate: PASS"), "{out}");
        assert!(out.contains("baseline:"), "{out}");

        // Doctor the baseline to a tenth of the measured wall time: the
        // re-run then looks ~10x slower, far past the default 1.5x
        // budget even under run-to-run variance.
        let doctored = temp_dir("gate-doctored").with_extension("json");
        let mut m = RunManifest::from_json(&std::fs::read_to_string(&base).unwrap()).unwrap();
        for stat in m.snapshot.spans.values_mut() {
            stat.wall_ns = (stat.wall_ns / 10).max(1);
        }
        std::fs::write(&doctored, m.to_json()).unwrap();
        let err = run(&s(&[
            "profile",
            "--days",
            "4",
            "--seed",
            "7",
            "--baseline",
            doctored.to_str().unwrap(),
            "--check=counter=off,alloc=off",
        ]))
        .unwrap_err();
        match &err {
            CliError::Regression { violations } => {
                assert!(
                    violations.iter().any(|v| v.contains("wall")),
                    "{violations:?}"
                );
            }
            other => panic!("expected a regression error, got {other}"),
        }
        assert!(err.to_string().contains("regression gate: FAIL"), "{err}");

        // Without --check the same diff is reported but never fatal.
        let out = run(&s(&[
            "profile",
            "--days",
            "4",
            "--seed",
            "7",
            "--baseline",
            doctored.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("  wall:"), "{out}");

        std::fs::remove_file(&base).unwrap();
        std::fs::remove_file(&doctored).unwrap();
    }

    #[test]
    fn metrics_manifest_is_written_even_when_the_command_fails() {
        let _obs = lock();
        let path = temp_dir("metrics-err").with_extension("json");
        let err = run(&s(&[
            "--metrics",
            path.to_str().unwrap(),
            "analyze",
            "/nonexistent/mira-data",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Store(_)), "{err}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"status\":\"error\""), "{json}");
        assert!(json.contains("\"error\":"), "{json}");
        std::fs::remove_file(&path).unwrap();

        // The success path stamps status ok.
        let ok_path = temp_dir("metrics-ok").with_extension("json");
        run(&s(&[
            "--metrics",
            ok_path.to_str().unwrap(),
            "profile",
            "--days",
            "3",
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&ok_path).unwrap();
        assert!(json.contains("\"status\":\"ok\""), "{json}");
        std::fs::remove_file(&ok_path).unwrap();
    }
}
