//! Correlation coefficients.
//!
//! The paper reports Pearson correlations between RAS-event counts and
//! per-user/per-project metrics, and rank correlations for monotone
//! relationships (failure rate vs scale). Both are implemented with tie
//! handling.

/// Pearson product-moment correlation of two equal-length samples.
///
/// Returns `None` if the samples differ in length, have fewer than two
/// points, or either is constant.
///
/// # Examples
///
/// ```
/// use bgq_stats::correlation::pearson;
///
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [2.0, 4.0, 6.0, 8.0];
/// assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some((sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0))
}

/// Mid-ranks of a sample (average rank for ties), 1-based.
///
/// Returns `None` when any value is non-finite: NaN has no rank, and an
/// infinity would silently compress every other gap, so rank correlations
/// on such data are reported as undefined rather than guessed at.
fn ranks(data: &[f64]) -> Option<Vec<f64>> {
    if data.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut idx: Vec<usize> = (0..data.len()).collect();
    idx.sort_by(|&a, &b| data[a].partial_cmp(&data[b]).expect("finite values"));
    let mut out = vec![0.0; data.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && data[idx[j + 1]] == data[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg_rank;
        }
        i = j + 1;
    }
    Some(out)
}

/// Spearman rank correlation (Pearson on mid-ranks, so ties are handled
/// exactly).
///
/// Returns `None` under the same conditions as [`pearson`], and also when
/// either sample contains a non-finite value (job attributes occasionally
/// carry NaN/∞ from degenerate records; those must not panic the
/// analysis).
pub fn spearman(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    pearson(&ranks(x)?, &ranks(y)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_linear_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 7.0).collect();
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((pearson(&x, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_captures_monotone_nonlinear() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v: &f64| v.exp()).collect();
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        // Pearson is below 1 for convex growth.
        assert!(pearson(&x, &y).unwrap() < 1.0);
    }

    #[test]
    fn ties_get_mid_ranks() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]).unwrap();
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn non_finite_inputs_return_none_instead_of_panicking() {
        // Pre-fix: `ranks` hit `partial_cmp(..).expect(..)` on NaN and the
        // whole analysis thread panicked.
        assert!(spearman(&[1.0, f64::NAN, 3.0], &[1.0, 2.0, 3.0]).is_none());
        assert!(spearman(&[1.0, 2.0, 3.0], &[1.0, f64::NAN, 3.0]).is_none());
        // Infinities sort, but collapse every other gap; also undefined.
        assert!(spearman(&[1.0, f64::INFINITY, 3.0], &[1.0, 2.0, 3.0]).is_none());
        assert!(spearman(&[f64::NEG_INFINITY, 2.0, 3.0], &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(pearson(&[1.0], &[1.0]).is_none());
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_none());
        assert!(pearson(&[1.0, 1.0], &[1.0, 2.0]).is_none());
        assert!(spearman(&[2.0, 2.0], &[1.0, 3.0]).is_none());
    }

    #[test]
    fn uncorrelated_symmetric_data() {
        let x = [-2.0, -1.0, 0.0, 1.0, 2.0];
        let y = [4.0, 1.0, 0.0, 1.0, 4.0]; // y = x², even function
        assert!(pearson(&x, &y).unwrap().abs() < 1e-12);
    }
}
