//! Property tests for the statistics substrate: distribution laws, fit
//! sanity, and descriptive invariants under arbitrary inputs.

use bgq_stats::correlation::{pearson, spearman};
use bgq_stats::dist::{Dist, DistKind};
use bgq_stats::gof::{ks_p_value, ks_statistic};
use bgq_stats::summary::{gini, Summary};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A strategy producing an arbitrary valid distribution with moderate
/// parameters (so numerics stay in range).
fn arb_dist() -> impl Strategy<Value = Dist> {
    prop_oneof![
        (0.01f64..10.0).prop_map(|l| Dist::exponential(l).unwrap()),
        (0.3f64..4.0, 0.1f64..1e4).prop_map(|(k, s)| Dist::weibull(k, s).unwrap()),
        (0.1f64..100.0, 0.5f64..5.0).prop_map(|(xm, a)| Dist::pareto(xm, a).unwrap()),
        (-3.0f64..5.0, 0.1f64..2.0).prop_map(|(m, s)| Dist::lognormal(m, s).unwrap()),
        (0.3f64..8.0, 0.01f64..10.0).prop_map(|(k, r)| Dist::gamma(k, r).unwrap()),
        (1u32..8, 0.01f64..10.0).prop_map(|(k, r)| Dist::erlang(k, r).unwrap()),
        (0.1f64..100.0, 0.1f64..100.0).prop_map(|(m, l)| Dist::inverse_gaussian(m, l).unwrap()),
        (-10.0f64..10.0, 0.1f64..10.0).prop_map(|(m, s)| Dist::normal(m, s).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cdf_bounded_monotone_everywhere(d in arb_dist(), xs in proptest::collection::vec(-1e6f64..1e6, 2..20)) {
        let mut xs = xs;
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0f64;
        for &x in &xs {
            let c = d.cdf(x);
            prop_assert!((0.0..=1.0).contains(&c), "{d}: cdf({x}) = {c}");
            prop_assert!(c + 1e-9 >= prev, "{d}: cdf not monotone at {x}");
            prev = prev.max(c);
        }
    }

    #[test]
    fn pdf_nonnegative(d in arb_dist(), x in -1e6f64..1e6) {
        prop_assert!(d.pdf(x) >= 0.0);
    }

    #[test]
    fn samples_lie_in_support(d in arb_dist(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let x = d.sample(&mut rng);
            prop_assert!(x.is_finite());
            if !matches!(d, Dist::Normal { .. }) {
                prop_assert!(x >= 0.0, "{d}: negative sample {x}");
            }
            if let Dist::Pareto { xm, .. } = d {
                prop_assert!(x >= xm * (1.0 - 1e-12));
            }
        }
    }

    #[test]
    fn fit_on_own_samples_succeeds_and_ks_is_small(kind_idx in 0usize..8, seed in 0u64..500) {
        let kind = DistKind::ALL[kind_idx];
        // A concrete representative per family.
        let truth = match kind {
            DistKind::Exponential => Dist::exponential(0.02).unwrap(),
            DistKind::Weibull => Dist::weibull(0.8, 500.0).unwrap(),
            DistKind::Pareto => Dist::pareto(10.0, 1.7).unwrap(),
            DistKind::LogNormal => Dist::lognormal(3.0, 1.0).unwrap(),
            DistKind::Gamma => Dist::gamma(2.0, 0.01).unwrap(),
            DistKind::Erlang => Dist::erlang(3, 0.01).unwrap(),
            DistKind::InverseGaussian => Dist::inverse_gaussian(100.0, 50.0).unwrap(),
            DistKind::Normal => Dist::normal(5.0, 2.0).unwrap(),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let data = truth.sample_n(&mut rng, 400);
        let fitted = kind.fit(&data).unwrap();
        let d = ks_statistic(&data, &fitted);
        // A correct-family MLE fit should rarely exceed D = 0.12 at n=400.
        prop_assert!(d < 0.12, "{kind}: D = {d}");
    }

    #[test]
    fn ks_p_value_monotone_in_d(d1 in 0.0f64..0.5, d2 in 0.0f64..0.5, n in 10usize..10_000) {
        let (lo, hi) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(ks_p_value(lo, n) >= ks_p_value(hi, n) - 1e-12);
    }

    #[test]
    fn summary_respects_order(data in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let s = Summary::from_slice(&data).unwrap();
        prop_assert!(s.min() <= s.p25() && s.p25() <= s.median());
        prop_assert!(s.median() <= s.p75() && s.p75() <= s.p95());
        prop_assert!(s.p95() <= s.p99() && s.p99() <= s.max());
        prop_assert!(s.min() <= s.mean() && s.mean() <= s.max());
    }

    #[test]
    fn gini_in_unit_interval(data in proptest::collection::vec(0.0f64..1e6, 1..100)) {
        if let Some(g) = gini(&data) {
            prop_assert!((0.0..1.0).contains(&g), "gini = {g}");
        }
    }

    #[test]
    fn pearson_is_symmetric_and_scale_invariant(
        xy in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..50),
        a in 0.1f64..10.0,
        b in -100.0f64..100.0,
    ) {
        let x: Vec<f64> = xy.iter().map(|p| p.0).collect();
        let y: Vec<f64> = xy.iter().map(|p| p.1).collect();
        if let Some(r) = pearson(&x, &y) {
            prop_assert!((-1.0..=1.0).contains(&r));
            prop_assert!((pearson(&y, &x).unwrap() - r).abs() < 1e-9);
            let scaled: Vec<f64> = x.iter().map(|v| a * v + b).collect();
            if let Some(r2) = pearson(&scaled, &y) {
                prop_assert!((r2 - r).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn spearman_invariant_under_monotone_transform(
        xy in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 3..40),
    ) {
        let x: Vec<f64> = xy.iter().map(|p| p.0).collect();
        let y: Vec<f64> = xy.iter().map(|p| p.1).collect();
        if let Some(r) = spearman(&x, &y) {
            let warped: Vec<f64> = x.iter().map(|v| v.exp()).collect();
            if let Some(r2) = spearman(&warped, &y) {
                prop_assert!((r2 - r).abs() < 1e-9, "{r} vs {r2}");
            }
        }
    }
}
