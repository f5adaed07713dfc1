//! The spatial-temporal distribution (STD) matrix of delivery demand —
//! Definition 1 of the paper.

use dpdp_net::{IntervalGrid, NodeId, Order};

/// Maps factory node ids to dense STD-matrix row indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactoryIndex {
    rows: Vec<Option<usize>>,
    factories: Vec<NodeId>,
}

impl FactoryIndex {
    /// Builds the index from the factory list (row order = list order).
    pub fn new(factories: &[NodeId]) -> Self {
        let max = factories
            .iter()
            .map(|f| f.index())
            .max()
            .map_or(0, |m| m + 1);
        let mut rows = vec![None; max];
        for (row, f) in factories.iter().enumerate() {
            rows[f.index()] = Some(row);
        }
        FactoryIndex {
            rows,
            factories: factories.to_vec(),
        }
    }

    /// Row index of a factory node, if it is a factory.
    #[inline]
    pub fn row(&self, node: NodeId) -> Option<usize> {
        self.rows.get(node.index()).copied().flatten()
    }

    /// The factory node at a given row.
    #[inline]
    pub fn node(&self, row: usize) -> NodeId {
        self.factories[row]
    }

    /// Number of factories `n`.
    #[inline]
    pub fn num_factories(&self) -> usize {
        self.factories.len()
    }
}

/// The STD matrix `E = [e_{i,j}] ∈ R^{n x T}`: total cargo quantity created
/// at factory `i` within time interval `j` (Definition 1, Eqs. (1)–(2)).
#[derive(Debug, Clone, PartialEq)]
pub struct StdMatrix {
    n: usize,
    t: usize,
    data: Vec<f64>,
}

impl StdMatrix {
    /// An all-zero `n x T` matrix.
    pub fn zeros(n: usize, t: usize) -> Self {
        StdMatrix {
            n,
            t,
            data: vec![0.0; n * t],
        }
    }

    /// Builds the STD matrix of one day of orders: `e_{i,j}` sums the
    /// quantities of orders whose **pickup** factory is `i` and whose
    /// creation time falls in interval `j`.
    pub fn from_orders(orders: &[Order], grid: &IntervalGrid, index: &FactoryIndex) -> Self {
        let mut m = Self::zeros(index.num_factories(), grid.num_intervals());
        for o in orders {
            if let Some(row) = index.row(o.pickup) {
                let col = grid.interval_of(o.created);
                m.data[row * m.t + col] += o.quantity;
            }
        }
        m
    }

    /// Number of factory rows `n`.
    #[inline]
    pub fn num_factories(&self) -> usize {
        self.n
    }

    /// Number of interval columns `T`.
    #[inline]
    pub fn num_intervals(&self) -> usize {
        self.t
    }

    /// Element `e_{i,j}`.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.t, "STD index out of range");
        self.data[row * self.t + col]
    }

    /// Mutable element access.
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn get_mut(&mut self, row: usize, col: usize) -> &mut f64 {
        assert!(row < self.n && col < self.t, "STD index out of range");
        &mut self.data[row * self.t + col]
    }

    /// Sum over all elements (total demand quantity of the day).
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Per-factory totals (row sums).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.n)
            .map(|r| self.data[r * self.t..(r + 1) * self.t].iter().sum())
            .collect()
    }

    /// Per-interval totals (column sums).
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.t];
        for r in 0..self.n {
            for (c, s) in sums.iter_mut().enumerate() {
                *s += self.data[r * self.t + c];
            }
        }
        sums
    }

    /// Frobenius norm of the difference to another matrix — the `Diff`
    /// metric of the paper's Fig. 9.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn frobenius_diff(&self, other: &StdMatrix) -> f64 {
        assert_eq!(
            (self.n, self.t),
            (other.n, other.t),
            "STD shapes must match"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &StdMatrix) {
        assert_eq!(
            (self.n, self.t),
            (other.n, other.t),
            "STD shapes must match"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise in-place scaling.
    pub fn scale(&mut self, factor: f64) {
        for a in self.data.iter_mut() {
            *a *= factor;
        }
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Renders the matrix as CSV (rows = factories, columns = intervals),
    /// for the Fig. 2 / Fig. 10 regenerators.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.data.len() * 6);
        for r in 0..self.n {
            for c in 0..self.t {
                if c > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{:.3}", self.data[r * self.t + c]));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdp_net::{OrderId, TimePoint};

    fn index() -> FactoryIndex {
        // Factories are nodes 2,3,4 (rows 0,1,2).
        FactoryIndex::new(&[NodeId(2), NodeId(3), NodeId(4)])
    }

    fn order(id: u32, pickup: u32, q: f64, hours: f64) -> Order {
        Order::new(
            OrderId(id),
            NodeId(pickup),
            NodeId(if pickup == 2 { 3 } else { 2 }),
            q,
            TimePoint::from_hours(hours),
            TimePoint::from_hours(hours + 4.0),
        )
        .unwrap()
    }

    #[test]
    fn factory_index_roundtrip() {
        let idx = index();
        assert_eq!(idx.row(NodeId(2)), Some(0));
        assert_eq!(idx.row(NodeId(4)), Some(2));
        assert_eq!(idx.row(NodeId(0)), None);
        assert_eq!(idx.row(NodeId(99)), None);
        assert_eq!(idx.node(1), NodeId(3));
        assert_eq!(idx.num_factories(), 3);
    }

    #[test]
    fn from_orders_accumulates_by_pickup_and_interval() {
        let grid = IntervalGrid::paper_default();
        let idx = index();
        // 10:00 is interval 60; 10:05 also 60; 10:10 is 61.
        let orders = vec![
            order(0, 2, 3.0, 10.0),
            order(1, 2, 2.0, 10.0 + 5.0 / 60.0),
            order(2, 3, 7.0, 10.0 + 10.0 / 60.0),
        ];
        let m = StdMatrix::from_orders(&orders, &grid, &idx);
        assert_eq!(m.num_factories(), 3);
        assert_eq!(m.num_intervals(), 144);
        assert!((m.get(0, 60) - 5.0).abs() < 1e-12);
        assert!((m.get(1, 61) - 7.0).abs() < 1e-12);
        assert!((m.total() - 12.0).abs() < 1e-12);
        assert_eq!(m.row_sums(), vec![5.0, 7.0, 0.0]);
        let cols = m.col_sums();
        assert!((cols[60] - 5.0).abs() < 1e-12);
        assert!((cols[61] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn frobenius_diff_is_a_metric_on_equal_shapes() {
        let mut a = StdMatrix::zeros(2, 3);
        let mut b = StdMatrix::zeros(2, 3);
        assert_eq!(a.frobenius_diff(&b), 0.0);
        *a.get_mut(0, 0) = 3.0;
        *b.get_mut(1, 2) = 4.0;
        assert!((a.frobenius_diff(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.frobenius_diff(&b), b.frobenius_diff(&a));
    }

    #[test]
    fn add_and_scale() {
        let mut a = StdMatrix::zeros(1, 2);
        *a.get_mut(0, 0) = 2.0;
        let mut b = StdMatrix::zeros(1, 2);
        *b.get_mut(0, 0) = 4.0;
        *b.get_mut(0, 1) = 6.0;
        a.add_assign(&b);
        a.scale(0.5);
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.get(0, 1), 3.0);
    }

    #[test]
    fn csv_shape() {
        let m = StdMatrix::zeros(2, 3);
        let csv = m.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert_eq!(csv.lines().next().unwrap().split(',').count(), 3);
    }

    #[test]
    #[should_panic(expected = "shapes must match")]
    fn shape_mismatch_panics() {
        let a = StdMatrix::zeros(2, 3);
        let b = StdMatrix::zeros(3, 2);
        let _ = a.frobenius_diff(&b);
    }
}
