//! Snapshot-store integration suite: the binary columnar path must be
//! indistinguishable from the CSV path everywhere above the loader.
//!
//! Four contracts, pinned in both feature legs (default and obs-off):
//!
//! 1. **Load parity** — the same dataset persisted as CSV and as a
//!    snapshot loads to *equal* in-memory records, and the full
//!    analysis over either load is bit-identical (`Debug` form
//!    compared, which prints every float exactly).
//! 2. **Order contract** — both persistence paths normalize at the
//!    load boundary: a scrambled dataset round-trips through CSV and
//!    through the snapshot store to the same canonical form.
//! 3. **Partitioned entry point parity** — the analysis over
//!    `DatasetIndex::build_partitioned`, given the snapshot's
//!    [`PartitionMap`], equals [`Analysis::run`].
//! 4. **Format stability** — a committed v2 fixture snapshot keeps
//!    loading bit-identically, and both writers (the bulk `write_dir`
//!    and a live feed run to the end) reproduce its bytes file for
//!    file; regenerate it with
//!    `BGQ_UPDATE_SNAPSHOT_FIXTURE=1 cargo test --test snapshot` if the
//!    format version is ever bumped (the test then fails until the new
//!    bytes are committed, which is the point).

use std::path::{Path, PathBuf};

use bgq_core::analysis::Analysis;
use bgq_core::filtering::FilterConfig;
use bgq_core::index::DatasetIndex;
use bgq_logs::snapshot::{self, PartitionMap};
use bgq_logs::store::{Dataset, LoadOptions, SourceAvailability};
use bgq_sim::{generate, LiveEmitter, SimConfig};

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bgq-snap-it-{tag}-{}", std::process::id()))
}

fn sim_dataset() -> Dataset {
    generate(&SimConfig::small(5).with_seed(21)).dataset
}

fn write_both(ds: &Dataset, tag: &str) -> (PathBuf, PathBuf) {
    let csv = tmp(&format!("{tag}-csv"));
    let snap = tmp(&format!("{tag}-snap"));
    ds.save_dir(&csv).expect("save CSV");
    snapshot::write_dir(ds, &snap, &SourceAvailability::ALL).expect("write snapshot");
    (csv, snap)
}

/// Contract 1: CSV load == snapshot load == analysis parity.
#[test]
fn csv_and_snapshot_loads_are_bit_identical() {
    let ds = sim_dataset();
    let (csv, snap) = write_both(&ds, "parity");
    let from_csv = Dataset::load_dir(&csv).expect("load CSV");
    let (from_snap, parts) = snapshot::read_dir(&snap).expect("load snapshot");
    assert_eq!(from_csv, from_snap, "the two persistence paths must agree");
    assert!(!parts.days.is_empty(), "partition map must cover the data");
    assert_eq!(
        format!("{:?}", Analysis::run(&from_csv)),
        format!("{:?}", Analysis::run(&from_snap)),
        "analysis must be bit-identical across persistence paths"
    );
    std::fs::remove_dir_all(&csv).ok();
    std::fs::remove_dir_all(&snap).ok();
}

/// Contract 2: file order never leaks — a scrambled dataset comes back
/// canonical from both paths.
#[test]
fn scrambled_dataset_round_trips_to_canonical_order_on_both_paths() {
    let mut scrambled = sim_dataset();
    scrambled.jobs.reverse();
    scrambled.ras.reverse();
    scrambled.tasks.reverse();
    scrambled.io.reverse();
    let mut canonical = scrambled.clone();
    canonical.normalize();
    assert_ne!(
        scrambled, canonical,
        "scramble must actually disturb the order for this test to bite"
    );
    let (csv, snap) = write_both(&scrambled, "scramble");
    let from_csv = Dataset::load_dir(&csv).expect("load CSV");
    let (from_snap, _) = snapshot::read_dir(&snap).expect("load snapshot");
    assert_eq!(from_csv, canonical, "CSV load must normalize");
    assert_eq!(from_snap, canonical, "snapshot load must normalize");
    std::fs::remove_dir_all(&csv).ok();
    std::fs::remove_dir_all(&snap).ok();
}

/// Contract 3: `DatasetIndex::build_partitioned`, the entry point the
/// benchmark harness calls with a snapshot's partition map, builds the
/// same index as `DatasetIndex::build`, all the way to the final analysis
/// artifact.
#[test]
fn partitioned_analysis_equals_monolithic() {
    let ds = sim_dataset();
    let snap = tmp("partitioned");
    snapshot::write_dir(&ds, &snap, &SourceAvailability::ALL).expect("write snapshot");
    let (loaded, parts) = snapshot::read_dir(&snap).expect("load snapshot");
    let avail = SourceAvailability::ALL;
    let idx = DatasetIndex::build_partitioned(&loaded, &parts, &FilterConfig::default());
    assert_eq!(
        format!("{:?}", Analysis::run_indexed(&idx).mark_degraded(&avail)),
        format!("{:?}", Analysis::run(&loaded).mark_degraded(&avail)),
        "partitioned analysis must be bit-identical to the monolithic build"
    );
    std::fs::remove_dir_all(&snap).ok();
}

/// Degraded load over a clean snapshot is exactly the strict load: the
/// resilience machinery must cost nothing when nothing is wrong.
#[test]
fn degraded_load_of_a_clean_snapshot_equals_strict() {
    let ds = sim_dataset();
    let snap = tmp("clean-degraded");
    snapshot::write_dir(&ds, &snap, &SourceAvailability::ALL).expect("write snapshot");
    let (strict, _) = snapshot::read_dir(&snap).expect("strict load");
    let opts = LoadOptions {
        max_reject_ratio: 1.0,
        degraded: true,
    };
    let (lenient, report) = snapshot::read_dir_with(&snap, &opts).expect("degraded load");
    assert_eq!(strict, lenient);
    assert_eq!(report.load.total_rejected(), 0);
    assert!(report.segments.iter().all(|s| s.quarantined.is_none()));
    std::fs::remove_dir_all(&snap).ok();
}

// ---------------------------------------------------------------------------
// Contract 4: format stability against committed bytes.
// ---------------------------------------------------------------------------

/// The fixture's generator config. Changing this invalidates the
/// committed bytes; regenerate with `BGQ_UPDATE_SNAPSHOT_FIXTURE=1`.
fn fixture_config() -> SimConfig {
    SimConfig::small(3).with_seed(11)
}

fn fixture_dataset() -> Dataset {
    let mut ds = generate(&fixture_config()).dataset;
    ds.normalize();
    ds
}

/// The committed fixture directory, regenerated first (once per test
/// process, before any test reads it) under
/// `BGQ_UPDATE_SNAPSHOT_FIXTURE`.
fn fixture_dir() -> PathBuf {
    static REGENERATE: std::sync::Once = std::sync::Once::new();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("snapshot_v2");
    REGENERATE.call_once(|| {
        if std::env::var_os("BGQ_UPDATE_SNAPSHOT_FIXTURE").is_some() {
            snapshot::write_dir(&fixture_dataset(), &dir, &SourceAvailability::ALL)
                .expect("regenerate fixture");
        }
    });
    dir
}

/// A snapshot written by an older build of the same format version must
/// keep loading to exactly the dataset that produced it. This is the
/// wire-format pin: any accidental change to the header layout, column
/// packing, string-table encoding, or checksum breaks here first.
#[test]
fn committed_v2_fixture_snapshot_still_loads() {
    let dir = fixture_dir();
    let want = fixture_dataset();
    assert!(
        snapshot::is_snapshot_dir(&dir),
        "fixture snapshot missing at {}; regenerate with BGQ_UPDATE_SNAPSHOT_FIXTURE=1",
        dir.display()
    );
    let (loaded, parts) = snapshot::read_dir(&dir).expect("fixture must load strictly");
    assert_eq!(
        loaded, want,
        "committed fixture bytes no longer decode to the pinned dataset — \
         if the format changed intentionally, bump the version and regenerate"
    );
    assert_eq!(
        parts,
        PartitionMap::of_dataset(&want),
        "fixture partition map must match the dataset's day structure"
    );
}

/// Names of the files in `dir`, sorted.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("list directory")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// `dir` holds exactly the committed fixture's files, byte for byte.
fn assert_matches_fixture(dir: &Path) {
    let fixture = fixture_dir();
    let names = file_names(&fixture);
    assert_eq!(
        names.len(),
        13,
        "the fixture is a MANIFEST plus 12 segments"
    );
    assert_eq!(
        file_names(dir),
        names,
        "{} holds other files",
        dir.display()
    );
    for name in &names {
        assert!(
            std::fs::read(dir.join(name)).expect("read written file")
                == std::fs::read(fixture.join(name)).expect("read fixture file"),
            "{name} differs from the committed fixture"
        );
    }
}

/// Both writers reproduce the committed bytes: the bulk write of the
/// fixture dataset, and a live feed of the same trace run to the end.
/// They share one per-day segment writer, so comparing them with each
/// other cannot catch a change to it; the committed bytes can.
#[test]
fn both_writers_reproduce_the_committed_fixture_bytes() {
    let bulk = tmp("fixture-bulk");
    snapshot::write_dir(&fixture_dataset(), &bulk, &SourceAvailability::ALL)
        .expect("write snapshot");
    assert_matches_fixture(&bulk);
    let live = tmp("fixture-live");
    let mut feed = LiveEmitter::new(&fixture_config(), &live).expect("init live root");
    assert_eq!(feed.emit_all().expect("emit every day"), 3);
    assert_matches_fixture(&live);
    std::fs::remove_dir_all(&bulk).ok();
    std::fs::remove_dir_all(&live).ok();
}
