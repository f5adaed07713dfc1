//! The undecided rows of an epoch by order cell, and which order cells an
//! acceptance's commit delta has to visit.

use super::NONE;
use crate::sweep::OrderCells;
use dpdp_net::{ShardMap, TimePoint};
use dpdp_routing::RoutePlanner;

/// The epoch's undecided orders, bucketed by the cell of their pickup node
/// (the sweep's [`OrderCells`], lent for the epoch), plus a memo of the
/// order cells each vehicle cell's acceptances have to visit.
///
/// A commit delta rescores the accepting vehicle `k` for every undecided
/// row. The block bound ([`OrderCells::dismissed`]) dismisses a whole order
/// cell for every vehicle of cell `v` anchored at `now` or later, and the
/// cells' merged probes are fixed for the epoch, so the order cells *not*
/// dismissed for `v` at `now` — its **live cells** — are computed once per
/// vehicle cell and epoch, whoever accepts. An acceptance whose vehicle is
/// anchored before `now` (the bound's corner would not hold) visits every
/// occupied cell instead. Deltas never escalate, so a foreign cell of the
/// vehicle's own region is dismissed like any other; the vehicle's own
/// cell is always live.
#[derive(Debug, Default)]
pub(super) struct Undecided {
    /// The sweep's index. Cell `u`'s undecided orders are
    /// `cells.orders[cells.run(u).0..end[u]]`, ascending: resolving an
    /// order shifts the rest of its cell's run down.
    cells: OrderCells,
    /// End of each cell's undecided run.
    end: Vec<u32>,
    /// Undecided orders in all cells.
    len: usize,
    /// `memo[v]`: vehicle cell `v`'s live cells, a `(start, end)` run of
    /// `live`; `(NONE, NONE)` until an acceptance in `v` asks.
    memo: Vec<(u32, u32)>,
    /// The memo's runs.
    live: Vec<u32>,
    /// The current delta's live cells: a run of `live`, or `None` for
    /// every occupied cell.
    current: Option<(u32, u32)>,
    /// The rows the current delta visits: its live cells' undecided orders.
    rows: Vec<u32>,
}

impl Undecided {
    /// Every order of the epoch undecided, over the sweep's index;
    /// `self`'s own buffers are kept from the previous epoch.
    pub(super) fn reset(&mut self, cells: OrderCells, num_shards: usize) {
        self.end.clear();
        self.end
            .extend((0..num_shards).map(|u| cells.run(u).1 as u32));
        self.len = cells.orders.len();
        self.cells = cells;
        self.memo.clear();
        self.memo.resize(num_shards, (NONE, NONE));
        self.live.clear();
    }

    /// Hands the sweep's index back for the next epoch.
    pub(super) fn take_cells(&mut self) -> OrderCells {
        std::mem::take(&mut self.cells)
    }

    /// The undecided orders of cell `u`, ascending.
    fn of_cell(&self, u: usize) -> &[u32] {
        &self.cells.orders[self.cells.run(u).0..self.end[u] as usize]
    }

    /// Resolves order `i` of cell `u`; `false` if it was not undecided.
    pub(super) fn remove(&mut self, i: u32, u: u32) -> bool {
        let u = u as usize;
        let Ok(p) = self.of_cell(u).binary_search(&i) else {
            return false;
        };
        let (start, end) = (self.cells.run(u).0, self.end[u] as usize);
        self.cells.orders.copy_within(start + p + 1..end, start + p);
        self.end[u] -= 1;
        self.len -= 1;
        true
    }

    /// Enters the delta of an acceptance on a vehicle now in cell `v`,
    /// anchored at `anchor_time`, in the epoch decided at `now`: its live
    /// cells are `v`'s (memoised), or every occupied cell when the vehicle
    /// is anchored before `now`. Returns how many undecided rows the delta
    /// dismisses; [`Undecided::rows`] lists the ones it visits.
    pub(super) fn enter(
        &mut self,
        map: &ShardMap,
        planner: &RoutePlanner<'_>,
        v: usize,
        anchor_time: TimePoint,
        now: TimePoint,
    ) -> usize {
        self.current = None;
        if anchor_time >= now {
            if self.memo[v].0 == NONE {
                let start = self.live.len() as u32;
                for &u in self.cells.occupied() {
                    if u as usize == v || !self.cells.dismissed(map, planner, v, u as usize, now) {
                        self.live.push(u);
                    }
                }
                self.memo[v] = (start, self.live.len() as u32);
            }
            self.current = Some(self.memo[v]);
        }
        let mut rows = std::mem::take(&mut self.rows);
        rows.clear();
        for &u in self.live_cells() {
            rows.extend_from_slice(self.of_cell(u as usize));
        }
        self.rows = rows;
        self.len - self.rows.len()
    }

    /// The current delta's live cells, ascending.
    fn live_cells(&self) -> &[u32] {
        match self.current {
            Some((start, end)) => &self.live[start as usize..end as usize],
            None => self.cells.occupied(),
        }
    }

    /// The undecided rows the current delta visits, cell after cell.
    pub(super) fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Whether order `j` of cell `u` is an undecided row the current delta
    /// dismissed.
    pub(super) fn dismisses(&self, j: u32, u: u32) -> bool {
        !self.live_cells().contains(&u) && self.of_cell(u as usize).binary_search(&j).is_ok()
    }
}
