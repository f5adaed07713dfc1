//! Divergence measures between demand/capacity vectors.
//!
//! Definition 5 computes the ST Score as the Jensen–Shannon divergence
//! between a route's capacity vector and the predicted demand vector; the
//! paper's supplementary material compares JS against the symmetric KL
//! divergence. Vectors are normalised to probability distributions first
//! (with additive smoothing so empty components stay finite).

/// Smoothing constant added to every component before normalisation.
const EPS: f64 = 1e-9;

/// Which divergence to use inside the ST Score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Jensen–Shannon divergence (the paper's choice; symmetric, bounded by
    /// `ln 2`).
    JensenShannon,
    /// Symmetric KL: `(KL(p||q) + KL(q||p)) / 2`.
    SymmetricKl,
}

/// Normalises a non-negative vector to a probability distribution with
/// additive smoothing. An empty vector normalises to an empty vector; an
/// all-zero vector becomes uniform.
pub fn normalize(v: &[f64]) -> Vec<f64> {
    if v.is_empty() {
        return Vec::new();
    }
    let total: f64 = v.iter().map(|x| x.max(0.0) + EPS).sum();
    v.iter().map(|x| (x.max(0.0) + EPS) / total).collect()
}

/// KL divergence `KL(p || q)` over two probability distributions of the
/// same length. Components are assumed strictly positive (use
/// [`normalize`]).
///
/// # Panics
/// Panics if lengths differ.
pub fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distributions must have equal length");
    p.iter()
        .zip(q)
        .filter(|(pi, _)| **pi > 0.0)
        .map(|(pi, qi)| pi * (pi / qi.max(EPS)).ln())
        .sum()
}

/// Symmetric KL divergence `(KL(p||q) + KL(q||p)) / 2`.
pub fn symmetric_kl(p: &[f64], q: &[f64]) -> f64 {
    0.5 * (kl_divergence(p, q) + kl_divergence(q, p))
}

/// Jensen–Shannon divergence: `0.5 KL(p||m) + 0.5 KL(q||m)` with
/// `m = (p+q)/2`. Symmetric and bounded by `ln 2`.
pub fn js_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distributions must have equal length");
    let m: Vec<f64> = p.iter().zip(q).map(|(a, b)| 0.5 * (a + b)).collect();
    0.5 * kl_divergence(p, &m) + 0.5 * kl_divergence(q, &m)
}

/// Applies the selected divergence to two *unnormalised* non-negative
/// vectors, normalising first. Empty vectors yield 0.
pub fn divergence(kind: DivergenceKind, a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let p = normalize(a);
    let q = normalize(b);
    match kind {
        DivergenceKind::JensenShannon => js_divergence(&p, &q),
        DivergenceKind::SymmetricKl => symmetric_kl(&p, &q),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LN2: f64 = std::f64::consts::LN_2;

    #[test]
    fn normalize_sums_to_one() {
        let p = normalize(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // All-zero becomes uniform.
        let u = normalize(&[0.0, 0.0]);
        assert!((u[0] - 0.5).abs() < 1e-9);
        assert!(normalize(&[]).is_empty());
        // Negative entries are clamped to zero.
        let c = normalize(&[-5.0, 1.0]);
        assert!(c[0] < c[1]);
        assert!(c[0] > 0.0);
    }

    #[test]
    fn kl_is_zero_on_identical_distributions() {
        let p = normalize(&[1.0, 4.0, 5.0]);
        assert!(kl_divergence(&p, &p).abs() < 1e-12);
        assert!(js_divergence(&p, &p).abs() < 1e-12);
        assert!(symmetric_kl(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn js_is_symmetric_and_bounded() {
        let p = normalize(&[10.0, 0.0, 0.0]);
        let q = normalize(&[0.0, 0.0, 10.0]);
        let d1 = js_divergence(&p, &q);
        let d2 = js_divergence(&q, &p);
        assert!((d1 - d2).abs() < 1e-12);
        assert!(d1 > 0.0);
        assert!(d1 <= LN2 + 1e-9, "JS must be bounded by ln 2, got {d1}");
        // Disjoint supports approach the bound.
        assert!(d1 > 0.9 * LN2);
    }

    #[test]
    fn kl_is_asymmetric_in_general() {
        let p = normalize(&[9.0, 1.0]);
        let q = normalize(&[1.0, 9.0]);
        let pq = kl_divergence(&p, &q);
        let qp = kl_divergence(&q, &p);
        assert!(pq > 0.0 && qp > 0.0);
        // Symmetrised version is symmetric by construction.
        assert!((symmetric_kl(&p, &q) - symmetric_kl(&q, &p)).abs() < 1e-12);
    }

    #[test]
    fn divergence_handles_unnormalised_and_empty_input() {
        assert_eq!(divergence(DivergenceKind::JensenShannon, &[], &[]), 0.0);
        let d = divergence(DivergenceKind::JensenShannon, &[2.0, 2.0], &[4.0, 4.0]);
        assert!(
            d.abs() < 1e-9,
            "proportional vectors should have ~0 divergence"
        );
        let d = divergence(DivergenceKind::SymmetricKl, &[1.0, 0.0], &[0.0, 1.0]);
        assert!(
            d > 1.0,
            "disjoint mass should diverge strongly under sym-KL"
        );
    }

    #[test]
    fn js_increases_with_mismatch() {
        let demand = normalize(&[5.0, 5.0, 0.0]);
        let aligned = normalize(&[5.0, 5.0, 0.1]);
        let misaligned = normalize(&[0.1, 0.1, 10.0]);
        assert!(js_divergence(&aligned, &demand) < js_divergence(&misaligned, &demand));
    }
}
