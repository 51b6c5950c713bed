//! Differential oracle suite: production fast paths vs `bgq-oracle`'s
//! deliberately naive references.
//!
//! Each pairing below runs the same inputs through a production path
//! and its whiteboard-obvious reference and demands agreement:
//!
//! | production                              | reference                             | equality   |
//! |-----------------------------------------|---------------------------------------|------------|
//! | `Summary` order statistics              | sort + type-7 interpolation           | bit-exact  |
//! | `correlation::spearman` (sorted ranks)  | counted mid-ranks + textbook Pearson  | `1e-12`    |
//! | `IntervalIndex` stab / overlap          | full scan per query                   | bit-exact  |
//! | `attribute_events` (indexed join)       | quadratic scan join                   | bit-exact  |
//! | streaming interned `Dataset` load       | original in-memory records            | bit-exact  |
//! | columnar snapshot round-trip            | original in-memory records            | bit-exact  |
//! | `mine_chains` (sorted single pass)      | quadratic whole-log reconstruction    | bit-exact  |
//! | columnar per-user engine                | one linear scan per distinct user     | bit-exact  |
//! | `SpaceSaving` top-k sketch              | exact tally + full sort               | ≤ εW bound |
//!
//! Random cases come from the vendored proptest harness (so failures
//! shrink to minimal draw streams); the `#[ignore]`d corpus test replays
//! a fixed-seed adversarial corpus — values exactly on decimal and
//! decade boundaries, zero-duration jobs, pre-origin events, NaN/∞,
//! all-tied samples — and is run in CI in release mode. The only
//! documented tolerance is the Spearman pairing (`1e-12`): the two sides
//! sum ranks in different orders. Everything else must match to the bit.

use bgq_core::chains::mine_chains;
use bgq_core::columnar::{per_entity_columnar, DEFAULT_CHUNK_ROWS};
use bgq_logs::interval::IntervalIndex;
use bgq_logs::join::attribute_events;
use bgq_logs::snapshot;
use bgq_logs::store::{Dataset, LoadOptions, SourceAvailability};
use bgq_model::{Severity, Span, Timestamp};
use bgq_oracle::cases::{self, AdversarialCase};
use bgq_oracle::{join as refjoin, ranking, stabbing, users};
use bgq_stats::correlation::spearman;
use bgq_stats::summary::Summary;
use bgq_stats::topk::SpaceSaving;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn ts(s: i64) -> Timestamp {
    Timestamp::from_secs(s)
}

// ---------------------------------------------------------------------------
// Pairing helpers, shared by the proptest properties and the fixed corpus.
// ---------------------------------------------------------------------------

fn check_summary(values: &[f64]) {
    let s = Summary::from_slice(values);
    let reference = |q| ranking::quantile_type7(values, q);
    match s {
        None => assert!(
            reference(0.5).is_none(),
            "Summary dropped a sample the reference kept: {values:?}"
        ),
        Some(s) => {
            for (q, got) in [
                (0.0, s.min()),
                (0.25, s.p25()),
                (0.5, s.median()),
                (0.75, s.p75()),
                (0.95, s.p95()),
                (0.99, s.p99()),
                (1.0, s.max()),
            ] {
                let want = reference(q).expect("reference defined when Summary is");
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "quantile q={q} diverged on {values:?}: {got} vs {want}"
                );
            }
        }
    }
}

fn check_spearman(x: &[f64], y: &[f64]) {
    let got = spearman(x, y);
    let want = ranking::spearman_naive(x, y);
    match (got, want) {
        (None, None) => {}
        (Some(a), Some(b)) => assert!(
            (a - b).abs() <= 1e-12,
            "spearman diverged: {a} vs {b} on x={x:?} y={y:?}"
        ),
        _ => panic!("spearman definedness diverged: {got:?} vs {want:?} on x={x:?} y={y:?}"),
    }
}

fn check_intervals(intervals: &[(Timestamp, Timestamp)], width_secs: i64, queries: &[i64]) {
    let idx = IntervalIndex::build(intervals.iter().copied(), Span::from_secs(width_secs));
    for &q in queries {
        assert_eq!(
            idx.stab(ts(q)),
            stabbing::stab_brute(intervals, ts(q)),
            "stab({q}) diverged (width {width_secs}) on {intervals:?}"
        );
    }
    for w in queries.windows(2) {
        let (from, to) = (ts(w[0].min(w[1])), ts(w[0].max(w[1])));
        assert_eq!(
            idx.overlapping(from, to),
            stabbing::overlapping_brute(intervals, from, to),
            "overlapping({from:?}, {to:?}) diverged on {intervals:?}"
        );
    }
}

fn check_join(case: &AdversarialCase) {
    for severity in Severity::ALL {
        let got: Vec<(usize, usize)> = attribute_events(&case.jobs, &case.events, severity)
            .pairs
            .iter()
            .map(|a| (a.event_idx, a.job_idx))
            .collect();
        let want = refjoin::scan_join(&case.jobs, &case.events, severity);
        assert_eq!(
            got, want,
            "join diverged at {severity:?} (seed {})",
            case.seed
        );
    }
}

/// Cross-checks the interned streaming ingestion against the in-memory
/// records: the case's jobs and events (given distinctive, comma-bearing
/// message texts so interning actually works) are saved and re-loaded at
/// zero tolerance and at the default reject ceiling, and
/// `attribute_events` over the round-tripped interned records must
/// produce the exact pairs the quadratic string-keyed reference produces
/// over the originals.
fn check_interned_roundtrip(case: &AdversarialCase, dir: &std::path::Path) {
    let mut ds = Dataset::new();
    ds.jobs = case.jobs.clone();
    ds.ras = case
        .events
        .iter()
        .cloned()
        .map(|mut r| {
            r.message = format!(
                "seed {}, rec {}: \"payload\" at {}",
                case.seed,
                r.rec_id.raw(),
                r.location
            )
            .into();
            r
        })
        .collect();
    ds.save_dir(dir).expect("save corpus case");
    // Loads normalize at the persistence boundary, so the round-trip
    // target is the canonical form of the original records.
    let mut canonical = ds.clone();
    canonical.normalize();
    let strict = Dataset::load_dir(dir).expect("strict load");
    assert_eq!(
        strict, canonical,
        "strict streaming round-trip diverged (seed {})",
        case.seed
    );
    let (lenient, report) = Dataset::load_dir_with(dir, &LoadOptions::default()).expect("lenient");
    assert_eq!(
        lenient, canonical,
        "lenient streaming round-trip diverged (seed {})",
        case.seed
    );
    assert_eq!(
        report.total_rejected(),
        0,
        "clean data rejected rows (seed {})",
        case.seed
    );
    for severity in Severity::ALL {
        let got: Vec<(usize, usize)> = attribute_events(&lenient.jobs, &lenient.ras, severity)
            .pairs
            .iter()
            .map(|a| (a.event_idx, a.job_idx))
            .collect();
        let want = refjoin::scan_join(&canonical.jobs, &canonical.ras, severity);
        assert_eq!(
            got, want,
            "join over interned round-trip diverged at {severity:?} (seed {})",
            case.seed
        );
    }
}

/// Cross-checks the binary snapshot store against the in-memory
/// records: the case's jobs and events go through `write_dir` /
/// `read_dir` (strict) and `read_dir_with` (degraded, generous
/// ceiling), both loads must equal the canonical form of the original
/// dataset exactly, and `attribute_events` over the round-tripped
/// records must produce the pairs the quadratic reference produces over
/// that same canonical form.
fn check_snapshot_roundtrip(case: &AdversarialCase, dir: &std::path::Path) {
    let mut ds = Dataset::new();
    ds.jobs = case.jobs.clone();
    ds.ras = case.events.clone();
    let mut canonical = ds.clone();
    canonical.normalize();
    snapshot::write_dir(&ds, dir, &SourceAvailability::ALL).expect("write snapshot");
    let (strict, parts) = snapshot::read_dir(dir).expect("strict snapshot load");
    assert_eq!(
        strict, canonical,
        "strict snapshot round-trip diverged (seed {})",
        case.seed
    );
    let rows =
        |f: fn(&snapshot::PartitionSpan) -> usize| -> usize { parts.days.iter().map(f).sum() };
    assert_eq!(
        rows(|s| s.jobs.len()),
        canonical.jobs.len(),
        "seed {}",
        case.seed
    );
    assert_eq!(
        rows(|s| s.ras.len()),
        canonical.ras.len(),
        "seed {}",
        case.seed
    );
    let opts = LoadOptions {
        max_reject_ratio: 1.0,
        degraded: true,
    };
    let (lenient, report) = snapshot::read_dir_with(dir, &opts).expect("degraded snapshot load");
    assert_eq!(
        lenient, canonical,
        "degraded snapshot round-trip diverged (seed {})",
        case.seed
    );
    assert_eq!(
        report.load.total_rejected(),
        0,
        "clean snapshot rejected rows (seed {})",
        case.seed
    );
    for severity in Severity::ALL {
        let got: Vec<(usize, usize)> = attribute_events(&strict.jobs, &strict.ras, severity)
            .pairs
            .iter()
            .map(|a| (a.event_idx, a.job_idx))
            .collect();
        let want = refjoin::scan_join(&canonical.jobs, &canonical.ras, severity);
        assert_eq!(
            got, want,
            "join over snapshot round-trip diverged at {severity:?} (seed {})",
            case.seed
        );
    }
}

/// Checks the chain miner against the quadratic reconstruction: the
/// naive side rebuilds every chain by whole-log scans, then every
/// headline statistic — chain count, corrupt-link count, length and gap
/// histograms (rebuilt from scratch, relying on record-order
/// invariance), eventual-success table, give-up rate, wasted
/// node-seconds — must match exactly.
fn check_chains(case: &AdversarialCase) {
    let jobs = &case.lineage_jobs;
    let got = mine_chains(jobs);
    let (chains, dangling) = users::chains_naive(jobs);
    let seed = case.seed;
    assert_eq!(
        got.chains,
        chains.len(),
        "chain count diverged (seed {seed})"
    );
    assert_eq!(
        got.dangling_links, dangling,
        "dangling count diverged (seed {seed})"
    );
    assert_eq!(
        got.linked_jobs,
        jobs.len() - chains.len(),
        "every non-root chain member carries one valid link (seed {seed})"
    );

    let mut length_hist = bgq_obs::Histogram::new();
    let mut by_length: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    let mut failed_chains = 0u64;
    let mut gave_up = 0u64;
    let mut wasted = 0u64;
    for chain in &chains {
        length_hist.record(chain.len() as u64);
        let succeeded = chain.iter().any(|&i| jobs[i].exit_code == 0);
        let failed = chain.iter().any(|&i| jobs[i].exit_code != 0);
        let e = by_length.entry(chain.len()).or_default();
        e.0 += 1;
        e.1 += u64::from(succeeded);
        if failed {
            failed_chains += 1;
            gave_up += u64::from(!succeeded);
        }
        if chain.len() >= 2 {
            wasted += chain
                .iter()
                .filter(|&&i| jobs[i].exit_code != 0)
                .map(|&i| jobs[i].node_seconds())
                .sum::<u64>();
        }
    }
    assert_eq!(
        got.length_hist, length_hist,
        "length histogram diverged (seed {seed})"
    );
    let want_lengths: Vec<(usize, u64, u64)> =
        by_length.into_iter().map(|(l, (c, s))| (l, c, s)).collect();
    let got_lengths: Vec<(usize, u64, u64)> = got
        .success_by_length
        .iter()
        .map(|r| (r.length, r.chains, r.succeeded))
        .collect();
    assert_eq!(
        got_lengths, want_lengths,
        "success-by-length diverged (seed {seed})"
    );
    let want_give_up = (failed_chains > 0).then(|| gave_up as f64 / failed_chains as f64);
    assert_eq!(
        got.give_up_rate, want_give_up,
        "give-up rate diverged (seed {seed})"
    );
    assert_eq!(
        got.wasted_node_seconds, wasted,
        "wasted work diverged (seed {seed})"
    );

    // Gaps go per valid link, against the *named* parent (not the chain
    // predecessor — corrupted logs can fork a chain).
    let mut gap_hist = bgq_obs::Histogram::new();
    for j in jobs {
        let Some(p) = j.resubmit_of else { continue };
        if p.raw() >= j.job_id.raw() {
            continue;
        }
        if let Some(parent) = jobs.iter().find(|cand| cand.job_id == p) {
            gap_hist.record((j.queued_at.as_secs() - parent.ended_at.as_secs()).max(0) as u64);
        }
    }
    assert_eq!(
        got.gap_hist, gap_hist,
        "gap histogram diverged (seed {seed})"
    );
}

/// Checks the sorted columnar per-user engine against the
/// one-pass-per-user linear scan, across several partition layouts.
fn check_per_user(case: &AdversarialCase) {
    for jobs in [&case.jobs, &case.lineage_jobs] {
        let want = users::per_user_scan(jobs);
        for chunk_rows in [1, 3, 50, DEFAULT_CHUNK_ROWS] {
            let got = per_entity_columnar(jobs, |j| j.user.raw(), chunk_rows);
            assert_eq!(
                got.len(),
                want.len(),
                "row count diverged (seed {})",
                case.seed
            );
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(
                    (g.id, g.jobs, g.failed, g.node_seconds),
                    (w.id, w.jobs, w.failed, w.node_seconds),
                    "columnar row diverged at chunk {chunk_rows} (seed {})",
                    case.seed
                );
                assert_eq!(
                    g.core_hours.to_bits(),
                    (w.node_seconds as f64 * 16.0 / 3_600.0).to_bits(),
                    "core-hours must derive from exact node-seconds (seed {})",
                    case.seed
                );
            }
        }
    }
}

/// Checks the space-saving sketch against the exact full-sort ranking:
/// estimates never undercount, over-count at most the sketch's own
/// error bound, every true heavy hitter above the bound is tracked, and
/// an unsaturated sketch reproduces the exact ranking verbatim.
fn check_sketch(updates: &[(u64, u64)], capacity: usize, what: &str) {
    let mut sk = SpaceSaving::with_capacity(capacity);
    for &(k, w) in updates {
        sk.update(k, w);
    }
    let exact = users::top_k_exact(updates, usize::MAX);
    let truth: BTreeMap<u64, u64> = exact.iter().copied().collect();
    let bound = sk.error_bound();
    for h in sk.top(usize::MAX) {
        let t = truth.get(&h.key).copied().unwrap_or(0);
        assert!(h.count >= t, "{what}: sketch undercounted key {}", h.key);
        assert!(
            h.count - t <= bound,
            "{what}: key {} over-counted by {} > εW {bound}",
            h.key,
            h.count - t
        );
        assert!(
            h.guaranteed() <= t,
            "{what}: guaranteed floor broken for key {}",
            h.key
        );
    }
    let tracked: Vec<u64> = sk.top(usize::MAX).iter().map(|h| h.key).collect();
    for &(k, t) in &exact {
        if t > bound {
            assert!(
                tracked.contains(&k),
                "{what}: heavy key {k} (weight {t}) missing"
            );
        }
    }
    if truth.len() <= capacity {
        // Never saturated: the sketch *is* the exact ranking.
        let got: Vec<(u64, u64)> = sk
            .top(usize::MAX)
            .iter()
            .map(|h| (h.key, h.count))
            .collect();
        assert_eq!(got, exact, "{what}: unsaturated sketch must be exact");
    }
}

/// The sketch pairing over a case's job log: top users by wasted
/// node-seconds (failed jobs, weighted) and by failure count.
fn check_sketch_over_jobs(case: &AdversarialCase) {
    let failed: Vec<&bgq_model::JobRecord> = case
        .lineage_jobs
        .iter()
        .filter(|j| j.exit_code != 0)
        .collect();
    let by_waste: Vec<(u64, u64)> = failed
        .iter()
        .map(|j| (u64::from(j.user.raw()), j.node_seconds()))
        .collect();
    let by_count: Vec<(u64, u64)> = failed
        .iter()
        .map(|j| (u64::from(j.user.raw()), 1))
        .collect();
    for capacity in [1, 2, 8, 64] {
        check_sketch(&by_waste, capacity, "wasted node-seconds");
        check_sketch(&by_count, capacity, "failure count");
    }
}

// ---------------------------------------------------------------------------
// Shrinking properties: random inputs, minimal counterexamples on failure.
// ---------------------------------------------------------------------------

/// Values that oversample rounding and ordering seams: tenths computed
/// two ways (`k / 10` and the drifted `k · 0.1`), powers of ten, plus
/// uniform filler and non-finite pollution.
fn adversarial_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..=10).prop_map(|k| k as f64 / 10.0),
        (0u64..=10).prop_map(|k| k as f64 * 0.1),
        (0u64..7).prop_map(|k| 10f64.powi(k as i32 - 3)),
        -4.0f64..12.0,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

proptest! {
    #[test]
    fn summary_quantiles_match_sorted_reference(
        values in proptest::collection::vec(adversarial_value(), 0..50),
    ) {
        check_summary(&values);
    }

    #[test]
    fn spearman_matches_counted_ranks(
        pairs in proptest::collection::vec((adversarial_value(), adversarial_value()), 0..30),
    ) {
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        check_spearman(&x, &y);
    }

    #[test]
    fn interval_index_matches_full_scan(
        raw in proptest::collection::vec((-2_000i64..10_000, -500i64..6_000), 0..40),
        width in 1i64..400,
        queries in proptest::collection::vec(-5_000i64..15_000, 1..30),
    ) {
        let intervals: Vec<(Timestamp, Timestamp)> =
            raw.iter().map(|&(s, len)| (ts(s), ts(s + len))).collect();
        check_intervals(&intervals, width, &queries);
    }
}

proptest! {
    // Fewer cases: these pairings regenerate whole job/event logs.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn join_matches_quadratic_scan(seed in 0u64..1_000_000) {
        check_join(&cases::generate(seed));
    }

    #[test]
    fn chain_miner_matches_quadratic_reconstruction(seed in 0u64..1_000_000) {
        check_chains(&cases::generate(seed));
    }

    #[test]
    fn columnar_aggregation_matches_linear_scan(seed in 0u64..1_000_000) {
        check_per_user(&cases::generate(seed));
    }
}

proptest! {
    #[test]
    fn sketch_stays_within_epsilon_of_exact(
        updates in proptest::collection::vec((0u64..120, 0u64..1_000), 0..250),
        capacity in 1usize..50,
    ) {
        check_sketch(&updates, capacity, "random stream");
    }
}

// ---------------------------------------------------------------------------
// Fixed-seed corpus: the CI leg. Every pairing over every corpus case.
// ---------------------------------------------------------------------------

/// The pinned corpus replayed by CI (`cargo test --release --test oracle
/// -- --ignored`). Seeds are stable: a divergence report names the seed,
/// and `bgq_oracle::cases::generate(seed)` reproduces the exact inputs.
#[test]
#[ignore = "fixed-seed corpus; run explicitly (CI does, in release)"]
fn fixed_seed_adversarial_corpus() {
    let base = std::env::temp_dir().join(format!("bgq-oracle-roundtrip-{}", std::process::id()));
    for seed in 0..64u64 {
        let case = cases::generate(seed);
        check_summary(&case.samples);
        let half = case.samples.len() / 2;
        check_spearman(&case.samples[..half], &case.samples[half..half * 2]);
        let queries: Vec<i64> = (-2_000..12_000).step_by(97).collect();
        for width in [1, 61, 997, 10_000] {
            check_intervals(&case.intervals, width, &queries);
        }
        check_join(&case);
        check_chains(&case);
        check_per_user(&case);
        check_sketch_over_jobs(&case);
        check_interned_roundtrip(&case, &base.join(seed.to_string()));
        check_snapshot_roundtrip(&case, &base.join(format!("{seed}-snap")));
    }
    let _ = std::fs::remove_dir_all(&base);
}
