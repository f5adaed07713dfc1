//! Dense row-major 2-D tensors.

use std::fmt;

/// A dense row-major matrix of `f64`. Vectors are `1 x n` or `n x 1`
/// tensors; scalars are `1 x 1`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Tensor {
    /// An all-zero `rows x cols` tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match shape");
        Tensor { rows, cols, data }
    }

    /// Builds from row slices.
    ///
    /// # Panics
    /// Panics if rows have unequal lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Tensor {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A `1 x 1` scalar tensor.
    pub fn scalar(v: f64) -> Self {
        Tensor::from_vec(1, 1, vec![v])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element access.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "tensor index out of range");
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "tensor index out of range");
        &mut self.data[r * self.cols + c]
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the tensor, returning its row-major buffer.
    pub(crate) fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a `1 x 1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1 x 1`.
    pub fn item(&self) -> f64 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.data[0]
    }

    /// Matrix product `self @ other`.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out.data);
        out
    }

    /// Accumulates `self @ other` into `out`, a zeroed row-major
    /// `self.rows x other.cols` slice. The **single** source of the
    /// matmul accumulation order: [`Tensor::matmul`] and every matmul on a
    /// [`Graph`](crate::Graph) tape (forward and backward) run this
    /// contract — `k` ascending per output element, exact-zero left-hand
    /// entries skipped, multiply and add rounded separately — which the
    /// sparse neighbourhood-attention op reproduces entry by entry. The
    /// loop is the register-blocked kernel of the crate docs'
    /// [Kernels](crate#kernels) section.
    ///
    /// # Panics
    /// Panics if inner dimensions or the length of `out` disagree.
    pub(crate) fn matmul_into(&self, other: &Tensor, out: &mut [f64]) {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} @ {:?}",
            self.shape(),
            other.shape()
        );
        assert_eq!(out.len(), self.rows * other.cols, "matmul output length");
        gemm(&self.data, self.cols, 1, other, out);
    }

    /// Accumulates `selfᵀ @ other` into `out` (a zeroed
    /// `self.cols x other.cols` slice) without materialising the
    /// transpose: the kernel of [`Tensor::matmul_into`] reading `self`
    /// down its columns, so every output element sums its terms in the
    /// same order (`self`'s rows ascending, exact zeros skipped) as
    /// `self.transpose().matmul(other)` — bit-identical.
    pub(crate) fn matmul_tn_into(&self, other: &Tensor, out: &mut [f64]) {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        assert_eq!(out.len(), self.cols * other.cols, "matmul_tn output length");
        gemm(&self.data, 1, self.cols, other, out);
    }

    /// Writes the transpose of `self` into `out` (`self.cols x self.rows`,
    /// row-major).
    pub(crate) fn transpose_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.data.len(), "transpose output length");
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        self.transpose_into(&mut out.data);
        out
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise in-place scale.
    pub fn scale_assign(&mut self, s: f64) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute element difference to another tensor.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Output columns one accumulator block holds: sixteen `f64`, four AVX2
/// registers or eight SSE2 ones.
const BLOCK: usize = 16;

/// `out[i, c] += Σ_t lhs[i·row_step + t·t_step] · rhs[t, c]`, the one
/// matmul kernel, run by the widest vector build this CPU has (see the
/// [crate docs](crate#kernels)).
fn gemm(lhs: &[f64], row_step: usize, t_step: usize, rhs: &Tensor, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `gemm_avx2` requires AVX2 and nothing else, and the line
        // above detected AVX2 on this CPU.
        #[allow(unsafe_code)]
        return unsafe { gemm_avx2(lhs, row_step, t_step, rhs, out) };
    }
    gemm_portable(lhs, row_step, t_step, rhs, out)
}

/// [`gemm_body`] built for the baseline target.
fn gemm_portable(lhs: &[f64], row_step: usize, t_step: usize, rhs: &Tensor, out: &mut [f64]) {
    gemm_body(lhs, row_step, t_step, rhs, out)
}

/// [`gemm_body`] built with AVX2 enabled: the same source, four `f64` to a
/// vector.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(lhs: &[f64], row_step: usize, t_step: usize, rhs: &Tensor, out: &mut [f64]) {
    gemm_body(lhs, row_step, t_step, rhs, out)
}

/// The matmul loop: per output row, the columns in register blocks of
/// [`BLOCK`], then 8, 4, 2 and 1 for the rest.
#[inline(always)]
fn gemm_body(lhs: &[f64], row_step: usize, t_step: usize, rhs: &Tensor, out: &mut [f64]) {
    let n = rhs.cols;
    if n == 0 || rhs.rows == 0 {
        return;
    }
    for (i, row_o) in out.chunks_exact_mut(n).enumerate() {
        let lhs = &lhs[i * row_step..];
        let mut c = 0;
        while c + BLOCK <= n {
            block::<BLOCK>(lhs, t_step, rhs, c, &mut row_o[c..c + BLOCK]);
            c += BLOCK;
        }
        if c + 8 <= n {
            block::<8>(lhs, t_step, rhs, c, &mut row_o[c..c + 8]);
            c += 8;
        }
        if c + 4 <= n {
            block::<4>(lhs, t_step, rhs, c, &mut row_o[c..c + 4]);
            c += 4;
        }
        if c + 2 <= n {
            block::<2>(lhs, t_step, rhs, c, &mut row_o[c..c + 2]);
            c += 2;
        }
        if c < n {
            block::<1>(lhs, t_step, rhs, c, &mut row_o[c..]);
        }
    }
}

/// Columns `c..c + W` of one output row, held in `W` accumulators over
/// the whole `t` loop: `t` ascending, an exact-zero left-hand entry
/// skipped, multiply then add — each accumulator sums its element's terms
/// in the plain triple loop's order.
#[inline(always)]
fn block<const W: usize>(lhs: &[f64], t_step: usize, rhs: &Tensor, c: usize, out: &mut [f64]) {
    let out: &mut [f64; W] = out.try_into().expect("a block is W columns wide");
    let mut acc = *out;
    for (&a, row_b) in lhs
        .iter()
        .step_by(t_step)
        .zip(rhs.data.chunks_exact(rhs.cols))
    {
        if a == 0.0 {
            continue;
        }
        let b: &[f64; W] = row_b[c..c + W]
            .try_into()
            .expect("a block is W columns wide");
        for (acc, &b) in acc.iter_mut().zip(b) {
            *acc += a * b;
        }
    }
    *out = acc;
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t.get(0, 1), 2.0);
        assert_eq!(t.row(1), &[3.0, 4.0]);
        assert_eq!(Tensor::scalar(5.0).item(), 5.0);
        assert_eq!(Tensor::full(2, 2, 7.0).get(1, 1), 7.0);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn bad_from_vec_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
        // Identity.
        let i = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.matmul(&i), a);
        // Rectangular.
        let r = Tensor::from_rows(&[&[1.0, 0.0, 2.0]]);
        let s = Tensor::from_rows(&[&[1.0], &[1.0], &[1.0]]);
        assert_eq!(r.matmul(&s).item(), 3.0);
    }

    /// Random `rows x cols`: about a quarter `±0.0`, one in twenty
    /// subnormal, the rest in `[-2, 2)`, then `specials` entries
    /// overwritten with `±inf` or NaN.
    fn awkward(seed: &mut u64, rows: usize, cols: usize, specials: usize) -> Tensor {
        let mut next = || {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *seed >> 33
        };
        let mut data: Vec<f64> = (0..rows * cols)
            .map(|_| match next() % 20 {
                0..=2 => 0.0,
                3 | 4 => -0.0,
                5 => (next() % 1000) as f64 * 1e-312 - 5e-310,
                _ => (next() % 4000) as f64 / 1000.0 - 2.0,
            })
            .collect();
        for s in 0..specials.min(data.len()) {
            let at = next() as usize % data.len();
            data[at] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][s % 3];
        }
        Tensor::from_vec(rows, cols, data)
    }

    /// The contract spelled out: `out[i, c] = Σ_t lhs[i, t] · rhs[t, c]`
    /// per element, `t` ascending, exact-zero left-hand entries skipped.
    fn triple_loop(lhs: impl Fn(usize, usize) -> f64, rhs: &Tensor, rows: usize) -> Vec<f64> {
        let (depth, n) = rhs.shape();
        let mut out = vec![0.0; rows * n];
        for i in 0..rows {
            for c in 0..n {
                let mut acc = 0.0;
                for t in 0..depth {
                    let a = lhs(i, t);
                    if a != 0.0 {
                        acc += a * rhs.get(t, c);
                    }
                }
                out[i * n + c] = acc;
            }
        }
        out
    }

    /// Bit patterns, every NaN as one: Rust leaves NaN payloads
    /// unspecified, so only "is NaN" is a property of the result.
    fn bits(data: &[f64]) -> Vec<u64> {
        let nan = f64::NAN.to_bits();
        data.iter()
            .map(|x| if x.is_nan() { nan } else { x.to_bits() })
            .collect()
    }

    #[cfg(target_arch = "x86_64")]
    fn has_avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn has_avx2() -> bool {
        false
    }

    /// Both products, through the portable build of the kernel and
    /// through the dispatched one (the AVX2 build where the CPU has it),
    /// equal the triple loop bit for bit — on every block width and tail,
    /// with signed zeros, subnormals, infinities and NaNs among the
    /// entries, where only the zero-skip keeps `0 · inf` out of a sum.
    #[test]
    fn blocked_kernels_are_the_triple_loop_bit_for_bit() {
        let dispatched = has_avx2();
        if !dispatched {
            eprintln!("no AVX2 on this CPU: checking the portable kernel only");
        }
        let mut seed = 0x5EED_0029;
        for n in [1, 5, 15, 16, 17, 33, 64] {
            for rows in [1, 5, 17] {
                for depth in [1, 16, 33] {
                    let case = format!("n={n} rows={rows} depth={depth}");
                    let a = awkward(&mut seed, rows, depth, 2);
                    let at = awkward(&mut seed, depth, rows, 2);
                    let b = awkward(&mut seed, depth, n, 3);

                    let want = bits(&triple_loop(|i, t| a.get(i, t), &b, rows));
                    let mut out = vec![0.0; rows * n];
                    gemm_portable(&a.data, depth, 1, &b, &mut out);
                    assert_eq!(bits(&out), want, "portable matmul, {case}");
                    if dispatched {
                        let mut out = vec![0.0; rows * n];
                        a.matmul_into(&b, &mut out);
                        assert_eq!(bits(&out), want, "dispatched matmul, {case}");
                    }

                    let want = bits(&triple_loop(|i, t| at.get(t, i), &b, rows));
                    let mut out = vec![0.0; rows * n];
                    gemm_portable(&at.data, 1, rows, &b, &mut out);
                    assert_eq!(bits(&out), want, "portable matmul_tn, {case}");
                    if dispatched {
                        let mut out = vec![0.0; rows * n];
                        at.matmul_tn_into(&b, &mut out);
                        assert_eq!(bits(&out), want, "dispatched matmul_tn, {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let at = a.transpose();
        assert_eq!(at.shape(), (3, 2));
        assert_eq!(at.get(2, 1), 6.0);
        assert_eq!(at.transpose(), a);
    }

    #[test]
    fn arithmetic_helpers() {
        let mut a = Tensor::from_rows(&[&[1.0, -2.0]]);
        a.add_assign(&Tensor::from_rows(&[&[1.0, 1.0]]));
        assert_eq!(a.data(), &[2.0, -1.0]);
        a.scale_assign(2.0);
        assert_eq!(a.data(), &[4.0, -2.0]);
        let m = a.map(f64::abs);
        assert_eq!(m.data(), &[4.0, 2.0]);
        assert!((m.norm() - 20f64.sqrt()).abs() < 1e-12);
        assert_eq!(a.max_abs_diff(&m), 4.0);
    }
}
