//! The chaos corpus: deterministic fault injection against the whole
//! ingestion-and-analysis pipeline.
//!
//! Three invariants, checked for every corpus case:
//!
//! 1. **Never panic** — loading a corrupted dataset and running the
//!    analysis over whatever survived must complete.
//! 2. **Exact accounting** — per-table rows / CSV rejects / schema
//!    rejects / quarantine status must match the injector's
//!    [`TableLedger`] to the row, and the surviving records themselves
//!    must be exactly the rows the ledger predicts, in the dataset's
//!    canonical order (loads normalize at the persistence boundary, so
//!    file order never leaks into expectations).
//! 3. **Baseline equivalence** — whenever corruption touched only rows
//!    that end up rejected (spliced garbage, no-op modes), the analysis
//!    must be bit-identical to the clean-run baseline.
//!
//! A failing case dumps its ledger as JSON under
//! `target/chaos-ledgers/seed-<N>.json` so the exact corruption replays
//! from the seed (CI uploads the directory as an artifact).
//!
//! The fast smoke test (first 12 seeds) runs in tier-1; the full
//! 64-seed corpus is `#[ignore]`d and run by CI in release, mirroring
//! the oracle corpus.

mod common;

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Mutex, OnceLock, PoisonError};

use bgq_chaos::{
    corrupt_segment, corrupt_table, plan_for_seed, ChaosLedger, FaultDir, FaultSpec, RowFate,
    SegmentCorruption, SegmentFate, SplitMix64, TableLedger, ALL_SEGMENT_MODES,
};
use bgq_core::analysis::Analysis;
use bgq_logs::snapshot::{self, day_of, segment_path, SegmentQuarantine};
use bgq_logs::store::{
    Dataset, LoadOptions, LoadReport, QuarantineReason, TableStatus, MAX_RETRIES,
};
use bgq_model::Timestamp;
use bgq_sim::{generate, generate_to_snapshot, SimConfig};

/// A directory's files, held in memory. The shared fixtures are written
/// once, read back and removed, so a run leaves no fixture behind and
/// every case directory gets the same bytes.
type DirFiles = Vec<(std::ffi::OsString, Vec<u8>)>;

/// Reads every file of `dir`, then removes the directory.
fn take_files(dir: &Path) -> DirFiles {
    let files = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            (entry.file_name(), std::fs::read(entry.path()).unwrap())
        })
        .collect();
    std::fs::remove_dir_all(dir).unwrap();
    files
}

/// Writes `files` into the directory `to`, creating it.
fn write_files(files: &DirFiles, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for (name, bytes) in files {
        std::fs::write(to.join(name), bytes).unwrap();
    }
}

struct Baseline {
    files: DirFiles,
    ds: Dataset,
    analysis_debug: String,
}

/// The shared clean dataset: generated once, saved once, analyzed once.
/// One RAS message is patched to guarantee a quoted comma-carrying
/// field, so the mid-quote truncation mode always has a target.
fn baseline() -> &'static Baseline {
    static BASE: OnceLock<Baseline> = OnceLock::new();
    BASE.get_or_init(|| {
        let mut ds = generate(&SimConfig::small(8).with_seed(42)).dataset;
        assert!(!ds.ras.is_empty(), "corpus needs RAS events");
        ds.ras[0].message = "chaos target, \"quoted\" payload, keep balanced".into();
        let dir = std::env::temp_dir().join(format!("bgq-chaos-base-{}", std::process::id()));
        ds.save_dir(&dir).expect("save baseline");
        // Reload so the baseline compares against file-order records
        // (identical to memory order, but proven rather than assumed).
        let reloaded = Dataset::load_dir(&dir).expect("reload baseline");
        assert_eq!(reloaded, ds, "save/load is lossless on clean data");
        let analysis_debug = format!("{:?}", Analysis::run(&ds));
        Baseline {
            files: take_files(&dir),
            ds,
            analysis_debug,
        }
    })
}

/// The survivor rows the ledger predicts, built from the clean
/// originals. Returned in ledger order; callers sort into the dataset's
/// canonical order before comparing, because every load path now
/// normalizes at the persistence boundary.
fn expect_rows<T: Clone>(orig: &[T], ledger: &TableLedger, shift: impl Fn(&mut T, i64)) -> Vec<T> {
    ledger
        .survivors
        .iter()
        .map(|&i| {
            let mut row = orig[i].clone();
            if let RowFate::TimeShifted { delta_s } = ledger.fates[i] {
                shift(&mut row, delta_s);
            }
            row
        })
        .collect()
}

fn shift_ts(t: &mut Timestamp, delta: i64) {
    *t = Timestamp::from_secs(t.as_secs() + delta);
}

/// Checks one loaded table against the ledger: status, row-exact
/// content, and reject accounting.
fn assert_table_matches(report: &LoadReport, loaded: &Dataset, ledger: &TableLedger) {
    let stats = report.table(ledger.table).expect("stats present");
    if ledger.deleted {
        assert_eq!(
            stats.status,
            TableStatus::Quarantined(QuarantineReason::Missing),
            "deleted table must quarantine as Missing"
        );
        return;
    }
    assert_eq!(
        stats.status,
        TableStatus::Loaded,
        "table {} must load",
        ledger.table
    );
    assert_eq!(
        stats.rejected_csv,
        ledger.expected_rejected_csv(),
        "CSV reject count for {} must match the ledger exactly",
        ledger.table
    );
    assert_eq!(
        stats.rejected_schema,
        ledger.expected_rejected_schema(),
        "schema reject count for {} must match the ledger exactly",
        ledger.table
    );
    assert_eq!(
        stats.rows,
        ledger.expected_rows(),
        "surviving row count for {} must match the ledger exactly",
        ledger.table
    );
    let base = &baseline().ds;
    match ledger.table {
        "jobs" => {
            let mut want = expect_rows(&base.jobs, ledger, |j, d| {
                shift_ts(&mut j.queued_at, d);
                shift_ts(&mut j.started_at, d);
                shift_ts(&mut j.ended_at, d);
            });
            want.sort_by_key(|j| (j.started_at, j.job_id));
            assert_eq!(loaded.jobs, want, "jobs survivors must match the ledger");
        }
        "ras" => {
            let mut want = expect_rows(&base.ras, ledger, |r, d| shift_ts(&mut r.event_time, d));
            want.sort_by_key(|r| (r.event_time, r.rec_id));
            assert_eq!(loaded.ras, want, "ras survivors must match the ledger");
        }
        "tasks" => {
            let mut want = expect_rows(&base.tasks, ledger, |t, d| {
                shift_ts(&mut t.started_at, d);
                shift_ts(&mut t.ended_at, d);
            });
            want.sort_by_key(|t| (t.started_at, t.task_id));
            assert_eq!(loaded.tasks, want, "tasks survivors must match the ledger");
        }
        "io" => {
            let mut want = expect_rows(&base.io, ledger, |_, _| {});
            want.sort_by_key(|r| r.job_id);
            assert_eq!(loaded.io, want, "io survivors must match the ledger");
        }
        other => panic!("unknown table {other}"),
    }
}

/// Runs one corpus case end to end. Panics (with context) on any
/// invariant violation; the caller dumps the ledger for replay.
fn run_case(seed: u64) -> ChaosLedger {
    let base = baseline();
    let (table, mode) = plan_for_seed(seed);
    let case_dir =
        std::env::temp_dir().join(format!("bgq-chaos-case-{seed}-{}", std::process::id()));
    write_files(&base.files, &case_dir);
    let table_static = bgq_chaos::TABLES
        .iter()
        .find(|t| **t == table)
        .copied()
        .unwrap();
    let ledger = corrupt_table(&case_dir, table_static, mode, seed).expect("corrupt");
    let chaos = ChaosLedger {
        seed,
        tables: vec![ledger.clone()],
    };

    // Degraded resilient load: a generous ratio ceiling so the ledger's
    // reject math (not the ceiling) decides what survives; quarantine
    // still triggers for the deleted-table mode.
    let opts = LoadOptions {
        max_reject_ratio: 1.0,
        degraded: true,
    };
    let (loaded, report) =
        Dataset::load_dir_with(&case_dir, &opts).expect("degraded load must not fail");

    // Invariant 2: exact accounting for the corrupted table...
    assert_table_matches(&report, &loaded, &ledger);
    // ...and untouched tables are untouched.
    for t in bgq_chaos::TABLES {
        if t != table {
            let stats = report.table(t).unwrap();
            assert_eq!(stats.status, TableStatus::Loaded);
            assert_eq!(stats.rejected(), 0, "untouched table {t} has no rejects");
        }
    }

    // Invariant 1: the analysis runs on whatever survived.
    let avail = report.availability();
    let analysis = Analysis::run(&loaded).mark_degraded(&avail);

    if ledger.deleted {
        assert!(report.is_degraded(), "deletion must degrade the report");
        assert!(!avail.available(table), "deleted table must be unavailable");
    }

    // Invariant 3: corruption that only added rejected rows (or changed
    // nothing) must leave the analysis bit-identical to the baseline.
    if ledger.preserves_all_rows() {
        assert_eq!(loaded, base.ds, "survivor set must equal the clean dataset");
        assert_eq!(
            format!("{analysis:?}"),
            base.analysis_debug,
            "analysis over intact survivors must be bit-identical to the clean baseline \
             (seed {seed}, table {table}, mode {mode:?})"
        );
    }

    std::fs::remove_dir_all(&case_dir).ok();
    chaos
}

/// Runs a seed range, dumping the ledger of any failing case to
/// `target/chaos-ledgers/seed-<N>.json` for replay.
fn run_corpus(seeds: std::ops::Range<u64>) {
    // A case's scratch directory is named by seed and process, and the
    // smoke and full corpora share seeds 0..12: one corpus at a time.
    static CORPUS: Mutex<()> = Mutex::new(());
    let _one_at_a_time = CORPUS.lock().unwrap_or_else(PoisonError::into_inner);
    let mut failures = Vec::new();
    for seed in seeds {
        let result = std::panic::catch_unwind(|| run_case(seed));
        match result {
            Ok(_) => {}
            Err(payload) => {
                let (table, mode) = plan_for_seed(seed);
                // Re-derive the ledger against a fresh copy so the dump
                // matches what the failing case saw.
                let dump_dir = Path::new("target/chaos-ledgers");
                std::fs::create_dir_all(dump_dir).ok();
                let replay_dir = std::env::temp_dir()
                    .join(format!("bgq-chaos-replay-{seed}-{}", std::process::id()));
                write_files(&baseline().files, &replay_dir);
                let table_static = bgq_chaos::TABLES
                    .iter()
                    .find(|t| **t == table)
                    .copied()
                    .unwrap();
                if let Ok(ledger) = corrupt_table(&replay_dir, table_static, mode, seed) {
                    let chaos = ChaosLedger {
                        seed,
                        tables: vec![ledger],
                    };
                    std::fs::write(dump_dir.join(format!("seed-{seed}.json")), chaos.to_json())
                        .ok();
                }
                std::fs::remove_dir_all(&replay_dir).ok();
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                    .unwrap_or_else(|| "non-string panic".to_owned());
                failures.push(format!("seed {seed} ({table}/{mode:?}): {msg}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} corpus case(s) failed (ledgers dumped to target/chaos-ledgers):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Tier-1 smoke: the first 12 seeds cover all ten corruption modes.
#[test]
fn chaos_smoke_first_twelve_seeds() {
    run_corpus(0..12);
}

/// The full corpus: 64 seeds crossing every corruption mode with every
/// table (seeds 0..40 are the full cross product; 41..64 re-roll the
/// inner choices). Run by CI in release.
#[test]
#[ignore = "full corpus; run in release via CI or --include-ignored"]
fn chaos_corpus_64_seeds() {
    run_corpus(0..64);
}

/// Acceptance pin: deleting any single table file yields a degraded
/// report — never an error — and the analysis marks exactly the stages
/// that consumed the lost source.
#[test]
fn deleting_any_single_table_degrades_instead_of_failing() {
    let base = baseline();
    let opts = LoadOptions {
        degraded: true,
        ..LoadOptions::default()
    };
    for table in bgq_chaos::TABLES {
        let case_dir =
            std::env::temp_dir().join(format!("bgq-chaos-delete-{table}-{}", std::process::id()));
        write_files(&base.files, &case_dir);
        std::fs::remove_file(case_dir.join(format!("{table}.csv"))).unwrap();
        let (loaded, report) = Dataset::load_dir_with(&case_dir, &opts)
            .unwrap_or_else(|e| panic!("deleting {table} must degrade, not fail: {e}"));
        assert!(report.is_degraded());
        assert_eq!(
            report.table(table).unwrap().status,
            TableStatus::Quarantined(QuarantineReason::Missing)
        );
        let avail = report.availability();
        assert!(!avail.available(table));
        let analysis = Analysis::run(&loaded).mark_degraded(&avail);
        if table == "tasks" {
            // No analysis stage reads the tasks table.
            assert!(analysis.degraded.is_empty());
        } else {
            assert!(
                !analysis.degraded.is_empty(),
                "losing {table} must mark its consumer stages"
            );
            for d in &analysis.degraded {
                assert_eq!(d.missing, vec![table]);
            }
        }
        std::fs::remove_dir_all(&case_dir).ok();
    }
}

/// Transient read faults under the scanner: bounded retry recovers, the
/// dataset is complete, and the retry count lands in the report.
#[test]
fn transient_read_fault_is_retried_to_a_clean_load() {
    let base = baseline();
    let dir = std::env::temp_dir().join(format!("bgq-chaos-transient-{}", std::process::id()));
    write_files(&base.files, &dir);
    let source = FaultDir::new(&dir)
        .with_fault("ras", FaultSpec::transient(64, 1))
        .with_fault("jobs", FaultSpec::transient(0, 1));
    let (loaded, report) =
        Dataset::load_source_with(&source, &LoadOptions::default()).expect("retry recovers");
    assert_eq!(loaded, base.ds, "recovered dataset is byte-identical");
    assert_eq!(report.table("jobs").unwrap().retries, 1);
    assert_eq!(report.table("ras").unwrap().retries, 1);
    assert_eq!(report.table("tasks").unwrap().retries, 0);
    assert_eq!(
        source.opens("jobs"),
        2,
        "one failed open plus one clean rescan"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Snapshot-segment corruption: the same ledger-exact discipline over
// the binary columnar store.
// ---------------------------------------------------------------------------

struct SnapshotBaseline {
    files: DirFiles,
    /// The committed days, from the MANIFEST.
    days: Vec<i64>,
    ds: Dataset,
}

/// The shared clean snapshot: generated once, written once. The dataset
/// kept here is the canonical (normalized) form the snapshot encodes.
fn snapshot_baseline() -> &'static SnapshotBaseline {
    static BASE: OnceLock<SnapshotBaseline> = OnceLock::new();
    BASE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("bgq-chaos-snap-base-{}", std::process::id()));
        let (out, stats) =
            generate_to_snapshot(&SimConfig::small(6).with_seed(7), &dir).expect("write snapshot");
        assert!(stats.segments > 0, "corpus needs segments");
        let days = snapshot::read_manifest(&dir).expect("manifest").days;
        let mut ds = out.dataset;
        ds.normalize();
        SnapshotBaseline {
            files: take_files(&dir),
            days,
            ds,
        }
    })
}

/// Global row indices of `table` that the snapshot writer places in the
/// `day` segment (jobs/tasks key on `started_at`, ras on `event_time`,
/// io on the owning job's start day, day 0 for orphans).
fn rows_in_segment(ds: &Dataset, table: &str, day: i64) -> Vec<usize> {
    let job_days: HashMap<_, _> = ds
        .jobs
        .iter()
        .map(|j| (j.job_id, day_of(j.started_at)))
        .collect();
    let day_at = |i: usize| match table {
        "jobs" => day_of(ds.jobs[i].started_at),
        "ras" => day_of(ds.ras[i].event_time),
        "tasks" => day_of(ds.tasks[i].started_at),
        "io" => job_days.get(&ds.io[i].job_id).copied().unwrap_or(0),
        other => panic!("unknown table {other}"),
    };
    let len = match table {
        "jobs" => ds.jobs.len(),
        "ras" => ds.ras.len(),
        "tasks" => ds.tasks.len(),
        "io" => ds.io.len(),
        _ => unreachable!(),
    };
    (0..len).filter(|&i| day_at(i) == day).collect()
}

/// A day on which `table` has rows — every mode then has a real target.
fn segment_day_with_rows(base: &SnapshotBaseline, table: &str) -> Option<i64> {
    base.days
        .iter()
        .copied()
        .find(|&d| !rows_in_segment(&base.ds, table, d).is_empty())
}

/// Every segment corruption mode against every table: the degraded load
/// must report exactly the fate the ledger predicts — the quarantine
/// reason for envelope attacks, the exact reject count for row poison —
/// and every untouched segment must be untouched.
#[test]
fn segment_corruption_matches_ledger_exactly() {
    let base = snapshot_baseline();
    let opts = LoadOptions {
        max_reject_ratio: 1.0,
        degraded: true,
    };
    let mut case = 0u64;
    for mode in ALL_SEGMENT_MODES {
        for table in bgq_chaos::TABLES {
            case += 1;
            if !mode.applicable(table, 1) {
                continue;
            }
            let Some(day) = segment_day_with_rows(base, table) else {
                continue;
            };
            let case_dir =
                std::env::temp_dir().join(format!("bgq-chaos-seg-{case}-{}", std::process::id()));
            write_files(&base.files, &case_dir);
            let mut rng = SplitMix64::new(0xC0FFEE ^ case);
            let target = segment_path(&case_dir, table, day);
            let ledger = corrupt_segment(&target, mode, &mut rng).expect("corrupt segment");
            let seg_rows = rows_in_segment(&base.ds, table, day);
            assert_eq!(ledger.table, table, "{}", ledger.to_json());
            assert_eq!(ledger.day, day, "{}", ledger.to_json());
            assert_eq!(
                ledger.rows,
                seg_rows.len(),
                "ledger row count must match the writer's partition: {}",
                ledger.to_json()
            );

            // Strict load (zero reject ceiling, no degraded mode, as the
            // CLI pins for snapshots) refuses the corruption outright.
            let strict = snapshot::read_dir_with(
                &case_dir,
                &LoadOptions {
                    max_reject_ratio: 0.0,
                    ..LoadOptions::default()
                },
            );
            assert!(
                strict.is_err(),
                "strict load must fail for {}/{}",
                table,
                ledger.mode.name()
            );

            // Degraded load: ledger-exact per-segment accounting.
            let (loaded, report) =
                snapshot::read_dir_with(&case_dir, &opts).expect("degraded load");
            let lost = match ledger.fate {
                SegmentFate::Quarantined(reason) => {
                    let stats = report
                        .segments
                        .iter()
                        .find(|s| s.table == table && s.day == day)
                        .expect("attacked segment must appear in the report");
                    assert_eq!(stats.quarantined, Some(reason), "{}", ledger.to_json());
                    assert_eq!(stats.rows, 0, "{}", ledger.to_json());
                    ledger.rows
                }
                SegmentFate::RowsRejected(k) => {
                    let stats = report
                        .segments
                        .iter()
                        .find(|s| s.table == table && s.day == day)
                        .expect("attacked segment must appear in the report");
                    assert_eq!(stats.quarantined, None, "{}", ledger.to_json());
                    assert_eq!(stats.rejected, k, "{}", ledger.to_json());
                    assert_eq!(stats.rows, ledger.rows - k, "{}", ledger.to_json());
                    k
                }
            };
            for s in &report.segments {
                if s.table != table || s.day != day {
                    assert_eq!(s.quarantined, None, "untouched segment quarantined");
                    assert_eq!(s.rejected, 0, "untouched segment rejected rows");
                }
            }
            let loaded_len = |ds: &Dataset| match table {
                "jobs" => ds.jobs.len(),
                "ras" => ds.ras.len(),
                "tasks" => ds.tasks.len(),
                "io" => ds.io.len(),
                _ => unreachable!(),
            };
            assert_eq!(
                loaded_len(&loaded),
                loaded_len(&base.ds) - lost,
                "loss must be exactly the attacked segment's toll: {}",
                ledger.to_json()
            );
            // A whole-segment quarantine loses exactly that day: the
            // survivors are the baseline minus the segment, in order.
            if let SegmentFate::Quarantined(_) = ledger.fate {
                let drop: std::collections::HashSet<usize> = seg_rows.into_iter().collect();
                let keep = |len: usize| (0..len).filter(|i| !drop.contains(i));
                match table {
                    "jobs" => assert_eq!(
                        loaded.jobs,
                        keep(base.ds.jobs.len())
                            .map(|i| base.ds.jobs[i].clone())
                            .collect::<Vec<_>>()
                    ),
                    "ras" => assert_eq!(
                        loaded.ras,
                        keep(base.ds.ras.len())
                            .map(|i| base.ds.ras[i].clone())
                            .collect::<Vec<_>>()
                    ),
                    "tasks" => assert_eq!(
                        loaded.tasks,
                        keep(base.ds.tasks.len())
                            .map(|i| base.ds.tasks[i].clone())
                            .collect::<Vec<_>>()
                    ),
                    "io" => assert_eq!(
                        loaded.io,
                        keep(base.ds.io.len())
                            .map(|i| base.ds.io[i].clone())
                            .collect::<Vec<_>>()
                    ),
                    _ => unreachable!(),
                }
            }

            // The analysis survives whatever remained.
            let _ = Analysis::run(&loaded).mark_degraded(&report.load.availability());
            std::fs::remove_dir_all(&case_dir).ok();
        }
    }
}

/// The per-segment reject ceiling: poisoned rows that pass under a
/// generous ratio flip the whole segment into a `RejectRatio`
/// quarantine when the ceiling is zero — other days still load.
#[test]
fn poisoned_segment_trips_the_reject_ceiling_per_partition() {
    let base = snapshot_baseline();
    let day = segment_day_with_rows(base, "jobs").expect("jobs segment with rows");
    let case_dir =
        std::env::temp_dir().join(format!("bgq-chaos-seg-ceiling-{}", std::process::id()));
    write_files(&base.files, &case_dir);
    let mut rng = SplitMix64::new(99);
    let ledger = corrupt_segment(
        &segment_path(&case_dir, "jobs", day),
        SegmentCorruption::PoisonRows,
        &mut rng,
    )
    .expect("poison");
    let SegmentFate::RowsRejected(k) = ledger.fate else {
        panic!("poison must predict row rejects, got {}", ledger.to_json());
    };

    // Ceiling 0.0, degraded: the poisoned day quarantines as RejectRatio.
    let opts = LoadOptions {
        max_reject_ratio: 0.0,
        degraded: true,
    };
    let (loaded, report) = snapshot::read_dir_with(&case_dir, &opts).expect("degraded load");
    let stats = report
        .segments
        .iter()
        .find(|s| s.table == "jobs" && s.day == day)
        .expect("segment stats");
    assert_eq!(stats.quarantined, Some(SegmentQuarantine::RejectRatio));
    let seg_rows = rows_in_segment(&base.ds, "jobs", day).len();
    assert_eq!(loaded.jobs.len(), base.ds.jobs.len() - seg_rows);

    // Generous ceiling: only the poisoned rows are lost.
    let opts = LoadOptions {
        max_reject_ratio: 1.0,
        degraded: true,
    };
    let (loaded, report) = snapshot::read_dir_with(&case_dir, &opts).expect("degraded load");
    let stats = report
        .segments
        .iter()
        .find(|s| s.table == "jobs" && s.day == day)
        .expect("segment stats");
    assert_eq!(stats.quarantined, None);
    assert_eq!(stats.rejected, k);
    assert_eq!(loaded.jobs.len(), base.ds.jobs.len() - k);
    std::fs::remove_dir_all(&case_dir).ok();
}

/// Lineage-specific chaos: a log with *real* retry chains gets its
/// `resubmit_of` column poisoned. The loader must reject exactly the
/// poisoned rows, and the chain miner must digest the survivors —
/// orphaned children whose parent row was rejected become counted
/// dangling links, never a panic.
#[test]
fn poisoned_lineage_quarantines_rows_and_mining_survives() {
    let mut ds = Dataset::new();
    ds.jobs = bgq_sim::generate_jobs_only(
        &SimConfig::small(3)
            .with_seed(21)
            .with_users(500, 50)
            .with_jobs_per_day(2_000.0)
            .with_retries(0.6),
    );
    ds.normalize();
    let clean = bgq_core::chains::mine_chains(&ds.jobs);
    assert!(clean.linked_jobs > 0, "corpus needs real chains to break");
    assert_eq!(clean.dangling_links, 0, "the simulator emits clean lineage");

    let dir = std::env::temp_dir().join(format!("bgq-chaos-lineage-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    snapshot::write_dir(&ds, &dir, &bgq_logs::store::SourceAvailability::ALL)
        .expect("write snapshot");
    let manifest = snapshot::read_manifest(&dir).expect("manifest");
    let mut rng = SplitMix64::new(0xBAD_CA11);
    let mut poisoned = 0usize;
    for &day in &manifest.days {
        let ledger = corrupt_segment(
            &segment_path(&dir, "jobs", day),
            SegmentCorruption::PoisonLineage,
            &mut rng,
        )
        .expect("every day of a 3-day sim has job rows");
        let SegmentFate::RowsRejected(k) = ledger.fate else {
            panic!(
                "lineage poison must predict row rejects: {}",
                ledger.to_json()
            );
        };
        poisoned += k;
    }
    assert!(poisoned > 0);

    let opts = LoadOptions {
        max_reject_ratio: 1.0,
        degraded: true,
    };
    let (loaded, report) = snapshot::read_dir_with(&dir, &opts).expect("degraded load");
    assert_eq!(
        report.segments.iter().map(|s| s.rejected).sum::<usize>(),
        poisoned,
        "exactly the poisoned rows are quarantined"
    );
    assert_eq!(loaded.jobs.len(), ds.jobs.len() - poisoned);

    // The miner is total over the holes the quarantine punched.
    let mined = bgq_core::chains::mine_chains(&loaded.jobs);
    assert_eq!(
        mined.length_hist.sum(),
        loaded.jobs.len() as u64,
        "every surviving job lands in exactly one chain"
    );
    assert!(
        mined.linked_jobs + mined.dangling_links <= clean.linked_jobs,
        "links can only be lost or orphaned, never invented"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Permanent read faults: strict mode fails, degraded mode quarantines
/// the table as an I/O loss and the analysis keeps going.
#[test]
fn permanent_read_fault_quarantines_in_degraded_mode() {
    let base = baseline();
    let dir = std::env::temp_dir().join(format!("bgq-chaos-permanent-{}", std::process::id()));
    write_files(&base.files, &dir);
    let strict_source = FaultDir::new(&dir).with_fault("ras", FaultSpec::permanent(128));
    let err = Dataset::load_source_with(&strict_source, &LoadOptions::default()).unwrap_err();
    assert!(
        err.to_string().contains("injected read fault"),
        "strict load must surface the injected fault, got: {err}"
    );

    let source = FaultDir::new(&dir).with_fault("ras", FaultSpec::permanent(128));
    let opts = LoadOptions {
        degraded: true,
        ..LoadOptions::default()
    };
    let (loaded, report) = Dataset::load_source_with(&source, &opts).expect("degraded load");
    assert!(loaded.ras.is_empty());
    let stats = report.table("ras").unwrap();
    assert_eq!(stats.status, TableStatus::Quarantined(QuarantineReason::Io));
    assert_eq!(stats.retries, MAX_RETRIES);
    let analysis = Analysis::run(&loaded).mark_degraded(&report.availability());
    assert!(analysis.degraded.iter().any(|d| d.stage == "ras"));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Live-tail chaos: corruption injected into a feed a serve daemon is
// actively tailing.
// ---------------------------------------------------------------------------

/// Corruption lands in segments *as they appear* in a live feed: the
/// daemon quarantines per table, raises the degraded banner in `STATS`,
/// never drops the established connection, and every post-fault reply
/// stays ledger-exact (byte-identical to the batch oracle over the same
/// faulted directory, with row counts matching the injector's ledger).
#[test]
fn live_tail_quarantines_faults_without_dropping_connections() {
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("bgq-chaos-live-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let config = SimConfig::small(6).with_seed(99).with_users(20, 2);
    let mut emitter = bgq_sim::LiveEmitter::new(&config, &dir).expect("live emitter");
    let load = LoadOptions {
        max_reject_ratio: 1.0,
        degraded: true,
    };
    let store = Arc::new(bgq_serve::EpochStore::new());
    let mut ingestor = bgq_serve::Ingestor::new(&dir, Arc::clone(&store), load.clone());
    let handle =
        bgq_serve::start(Arc::clone(&store), &bgq_serve::ServerOptions::default()).unwrap();
    let mut client = bgq_serve::Client::connect(&handle.addr().to_string()).unwrap();
    let queries = [
        "STATS",
        "MTTI",
        "MTTI FATAL",
        "RATE-BY-SCALE",
        "AFFECTED FATAL",
        "TOPK 5",
        "USER 1",
    ];
    let assert_matches_oracle = |client: &mut bgq_serve::Client, tag: &str| {
        let epoch_no = store.current().epoch;
        let oracle = common::batch_epoch(&dir, epoch_no, &load);
        for q in &queries {
            let live = client.query(q).expect("query over surviving connection");
            let batch = bgq_serve::respond(&oracle, &bgq_serve::parse_query(q).unwrap());
            assert_eq!(live, batch, "{tag}: {q} diverges from the batch oracle");
        }
    };

    // Two clean days first: the healthy baseline.
    emitter.emit_next_day().unwrap().unwrap();
    emitter.emit_next_day().unwrap().unwrap();
    assert_eq!(ingestor.poll().unwrap(), 2);
    let stats = client.query("STATS").unwrap();
    assert!(stats.contains("degraded none"), "clean feed: {stats}");
    assert_matches_oracle(&mut client, "clean prefix");

    // Fault 1: a bit flip lands in day 3's RAS segment right after the
    // writer commits it, before the daemon polls.
    let mut rng = SplitMix64::new(0xdead);
    let (day3, _) = emitter.emit_next_day().unwrap().unwrap();
    let ras_ledger = corrupt_segment(
        &segment_path(&dir, "ras", day3),
        SegmentCorruption::FlipPayloadByte,
        &mut rng,
    )
    .expect("flip ras payload");
    assert_eq!(
        ras_ledger.fate,
        SegmentFate::Quarantined(SegmentQuarantine::Checksum)
    );
    assert_eq!(ingestor.poll().unwrap(), 1);
    let stats = client.query("STATS").unwrap();
    assert!(stats.contains("degraded ras"), "{stats}");
    assert!(
        stats.contains(&format!("quarantine ras {day3} checksum mismatch")),
        "{stats}"
    );
    assert_matches_oracle(&mut client, "after ras flip");

    // Fault 2 on the same still-open connection: day 4's jobs segment
    // vanishes between commit and poll.
    let (day4, _) = emitter.emit_next_day().unwrap().unwrap();
    let jobs_ledger = corrupt_segment(
        &segment_path(&dir, "jobs", day4),
        SegmentCorruption::DeleteSegment,
        &mut rng,
    )
    .expect("delete jobs segment");
    assert_eq!(
        jobs_ledger.fate,
        SegmentFate::Quarantined(SegmentQuarantine::Missing)
    );
    assert_eq!(ingestor.poll().unwrap(), 1);
    let stats = client.query("STATS").unwrap();
    assert!(stats.contains("degraded jobs,ras"), "{stats}");
    assert!(
        stats.contains(&format!("quarantine jobs {day4} missing file")),
        "{stats}"
    );
    assert_matches_oracle(&mut client, "after jobs delete");

    // The feed recovers: the remaining days arrive clean, the same
    // connection keeps answering, and the row accounting is exactly the
    // emitted corpus minus the two quarantined segments.
    while emitter.emit_next_day().unwrap().is_some() {}
    ingestor.poll().unwrap();
    assert_matches_oracle(&mut client, "after recovery");
    let full = emitter.emitted_prefix();
    let epoch = store.current();
    assert_eq!(
        epoch.rows[0],
        full.jobs.len() - rows_in_segment(&full, "jobs", day4).len(),
        "jobs rows must drop exactly the deleted segment"
    );
    assert_eq!(
        epoch.rows[1],
        full.ras.len() - rows_in_segment(&full, "ras", day3).len(),
        "ras rows must drop exactly the flipped segment"
    );
    assert_eq!(epoch.rows[2], full.tasks.len(), "tasks stay untouched");
    assert_eq!(epoch.rows[3], full.io.len(), "io stays untouched");
    assert_eq!(epoch.days.len(), emitter.total_days());
    assert_eq!(ras_ledger.rows, rows_in_segment(&full, "ras", day3).len());
    assert_eq!(jobs_ledger.rows, rows_in_segment(&full, "jobs", day4).len());

    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
