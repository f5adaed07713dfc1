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
    /// [`Graph`](crate::Graph) tape (forward and backward) run this loop —
    /// `k` ascending per output element, exact-zero left-hand entries
    /// skipped — which the sparse neighbourhood-attention op reproduces
    /// entry by entry.
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
        let n = other.cols;
        assert_eq!(out.len(), self.rows * n, "matmul output length");
        if self.cols == 0 || n == 0 {
            return;
        }
        for (row_a, row_o) in self
            .data
            .chunks_exact(self.cols)
            .zip(out.chunks_exact_mut(n))
        {
            for (&a, row_b) in row_a.iter().zip(other.data.chunks_exact(n)) {
                if a == 0.0 {
                    continue;
                }
                for (o, b) in row_o.iter_mut().zip(row_b) {
                    *o += a * b;
                }
            }
        }
    }

    /// Accumulates `selfᵀ @ other` into `out` (a zeroed
    /// `self.cols x other.cols` slice) without materialising the
    /// transpose: a sum of row outer products, which visits every output
    /// element's terms in the same order (`self`'s rows ascending, exact
    /// zeros skipped) as `self.transpose().matmul(other)` — bit-identical,
    /// one pass over contiguous rows.
    pub(crate) fn matmul_tn_into(&self, other: &Tensor, out: &mut [f64]) {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        let n = other.cols;
        assert_eq!(out.len(), self.cols * n, "matmul_tn output length");
        if self.cols == 0 || n == 0 {
            return;
        }
        for (row_a, row_b) in self
            .data
            .chunks_exact(self.cols)
            .zip(other.data.chunks_exact(n))
        {
            for (&a, row_o) in row_a.iter().zip(out.chunks_exact_mut(n)) {
                if a == 0.0 {
                    continue;
                }
                for (o, b) in row_o.iter_mut().zip(row_b) {
                    *o += a * b;
                }
            }
        }
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
