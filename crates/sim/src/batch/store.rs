//! The epoch's plan matrix, the column map that indexes it, and what a
//! commit delta classifies against.

use super::NONE;
#[cfg(doc)]
use super::{DecisionBatch, EpochScratch};
#[cfg(doc)]
use crate::dispatcher::DispatchContext;
#[cfg(doc)]
use crate::sweep::SweepBuffers;
use dpdp_net::{Order, VehicleId};
use dpdp_routing::{PlanScore, PlannerOutput, PruneProbe, RoutePlanner, VehicleView};

/// Which column of the plan matrix each vehicle reads this epoch: the
/// epoch's idle-twin grouping (see the module docs of [`crate::batch`]),
/// built by [`EpochScratch`] and owned by the [`PlanStore`] while the
/// epoch runs.
///
/// Columns `0..K` are the vehicles' own: column `k` stands for vehicle `k`
/// alone. Every idle-twin group of two or more vehicles is one more column,
/// `K + g` for the `g`-th group by lowest member, and stands for each of
/// its current members. A group's id is never a vehicle id, so a member
/// that leaves its group ([`ColumnMap::split`]) moves to its own column
/// and the group keeps its id — even when the leaver is the lowest member,
/// which is the one a lowest-id tie-break accepts first. A grouped
/// vehicle's own column holds no cell until it leaves.
#[derive(Debug, Default)]
pub(crate) struct ColumnMap {
    /// `column_of[k]`: the column vehicle `k` reads.
    column_of: Vec<u32>,
    /// Group `g`'s current members are `members[groups[g].0..groups[g].1]`,
    /// ascending.
    groups: Vec<(u32, u32)>,
    /// Every group's members, group after group.
    members: Vec<u32>,
}

impl ColumnMap {
    /// Rebuilds the map from `rep[k]`, the lowest-numbered vehicle of
    /// `k`'s twin group (`k` itself for a vehicle in none): groups are
    /// numbered by that representative and list their members ascending.
    /// `O(K)`, no allocation once the vectors have grown to the fleet.
    pub(super) fn group(&mut self, rep: &[u32]) {
        let k_n = rep.len();
        // `column_of` counts each representative's members first.
        self.column_of.clear();
        self.column_of.resize(k_n, 0);
        for &r in rep {
            self.column_of[r as usize] += 1;
        }
        self.groups.clear();
        let mut end = 0;
        for (k, column) in self.column_of.iter_mut().enumerate() {
            let size = *column;
            *column = k as u32;
            if size > 1 {
                *column = (k_n + self.groups.len()) as u32;
                self.groups.push((end, end));
                end += size;
            }
        }
        self.members.clear();
        self.members.resize(end as usize, 0);
        for (k, &r) in rep.iter().enumerate() {
            let column = self.column_of[r as usize];
            if let Some(g) = (column as usize).checked_sub(k_n) {
                let slot = &mut self.groups[g].1;
                self.members[*slot as usize] = k as u32;
                *slot += 1;
                self.column_of[k] = column;
            }
        }
    }

    /// The map of a fleet of `k_n` vehicles without twins.
    #[cfg(test)]
    pub(crate) fn ungrouped(k_n: usize) -> Self {
        let mut map = ColumnMap::default();
        map.group(&(0..k_n as u32).collect::<Vec<_>>());
        map
    }

    /// The column vehicle `k` reads, `None` for a vehicle outside the
    /// fleet.
    #[inline]
    pub(crate) fn column_of(&self, k: usize) -> Option<u32> {
        self.column_of.get(k).copied()
    }

    /// The vehicles column `*c` stands for, ascending: a group's current
    /// members, or the one vehicle whose own column it is.
    #[inline]
    pub(crate) fn members<'m>(&'m self, c: &'m u32) -> &'m [u32] {
        match (*c as usize).checked_sub(self.column_of.len()) {
            None => std::slice::from_ref(c),
            Some(g) => {
                let (start, end) = self.groups[g];
                &self.members[start as usize..end as usize]
            }
        }
    }

    /// Number of column ids: one per vehicle plus one per group.
    pub(crate) fn num_columns(&self) -> usize {
        self.column_of.len() + self.groups.len()
    }

    /// Vehicle `k` leaves its group, if it is in one, for its own column,
    /// which holds no cell yet.
    pub(super) fn split(&mut self, k: usize) {
        let Some(g) = (self.column_of[k] as usize).checked_sub(self.column_of.len()) else {
            return;
        };
        let (start, end) = &mut self.groups[g];
        let members = &mut self.members[*start as usize..*end as usize];
        let p = members
            .binary_search(&(k as u32))
            .expect("a grouped vehicle is a member of its group");
        members.copy_within(p + 1.., p);
        *end -= 1;
        self.column_of[k] = k as u32;
    }
}

/// The epoch's `B x K` plan matrix, stored by column: candidate rows over
/// a per-column fallback. A cell is a [`PlanScore`] — scalars and
/// insertion positions, `Copy`, no heap — so the store owns no route and
/// dropping it frees only its row and index vectors.
///
/// **A twin group is one column.** A row stores `(column, score)` cells,
/// ascending by column id (see [`ColumnMap`]): one cell per `(order,
/// group)` for an idle-twin group, however many members it has, and one
/// per `(order, vehicle)` for everybody else. Cell `(i, k)` of the dense
/// matrix is the cell of the column `k` reads. A reader that walks a row
/// vehicle by vehicle ([`PlanStore::fold`]) therefore meets the ungrouped
/// vehicles in ascending order, then each group's members consecutively
/// and ascending — not one ascending sequence, so a policy that wants "the
/// lowest vehicle id among equal keys" must compare ids, not rely on the
/// visit order.
///
/// Every absent cell reads as its column's fallback, the pruned score
/// (`best: None` plus the column's `d_{t,k}`) — identical for every row.
/// A row stores only the survivors of the sweep's classification, which
/// is what lets the hierarchical megacity episode scale with the *work*
/// of the epoch instead of `O(B x K)` memory traffic on cells whose
/// content is known in advance. A one-cell row holds every active
/// vehicle's column, so there the fallback is read only for a masked
/// vehicle and for the columns an acceptance split off. Either way every
/// cell query of a still-undecided row answers with bit-identical values.
///
/// Pruned cells stay implicit through commits too: an acceptance on
/// vehicle `k` first moves `k` to its own column (a grouped `k` leaves
/// its group, whose cells stay right for the members that remain),
/// refreshes that column's fallback once and touches a row only where the
/// column replan evaluated a cell or a stored cell went stale, so a row
/// grows by at most one entry per *evaluated* delta cell. A cell that was
/// ever evaluated stays stored (overwritten with the fallback if a later
/// commit prunes it), so a feasible cell is always present.
///
/// **The column index** answers "which rows store a cell of column `c`"
/// without searching them — what a commit delta needs to find the stored
/// cells it just made stale among thousands of rows that hold nothing of
/// `c`. It is the sweep's own work list, kept instead of dropped:
/// the list is column-major (see [`crate::sweep`]), so a column is one
/// `(start, end)` into it and nothing is built. Cells a later delta
/// inserts are chained per column through `inserted`. The invariant:
/// every stored cell `(i, c)` is in `c`'s run of
/// `swept` or in `c`'s chain — rows never drop a cell, so the index only
/// grows. Every column a member splits off starts with no run and fills
/// through its chain, so the chain is per column: one shared list scanned
/// whole per acceptance would cost the epoch's splits times its inserts.
#[derive(Debug)]
pub(super) struct PlanStore {
    /// `rows[i]`: the stored `(column, score)` cells of epoch order `i`,
    /// ascending by column.
    pub(super) rows: Vec<Vec<(u32, PlanScore)>>,
    /// Which column each vehicle reads.
    pub(super) map: ColumnMap,
    /// Per column id: its fallback score, its run of `swept` and the head
    /// of its chain of inserted cells.
    pub(super) columns: Vec<Column>,
    /// The `(row, column)` cells the sweep stored: each column's are one
    /// contiguous run in ascending row order.
    pub(super) swept: Vec<(u32, u32)>,
    /// `(row, next)`: a cell a commit delta inserted, and the one its
    /// column inserted before it ([`NONE`] ends the chain).
    inserted: Vec<(u32, u32)>,
}

/// Column `c`'s side of a [`PlanStore`].
#[derive(Debug)]
pub(super) struct Column {
    /// What a cell of this column no row stores reads as.
    pub(super) fallback: PlanScore,
    /// This column's `(start, end)` run of [`PlanStore::swept`].
    stored: (u32, u32),
    /// This column's latest entry in [`PlanStore::inserted`], [`NONE`] if
    /// no delta inserted a cell of it.
    inserted: u32,
}

impl Column {
    /// A column whose absent cells read as `fallback`, indexed nowhere yet.
    pub(super) fn new(fallback: PlanScore) -> Self {
        Column {
            fallback,
            stored: (0, 0),
            inserted: NONE,
        }
    }
}

impl PlanStore {
    /// The store over `rows`, indexing each column's run of `swept` (the
    /// sweep's column-major work list).
    pub(super) fn new(
        rows: Vec<Vec<(u32, PlanScore)>>,
        map: ColumnMap,
        mut columns: Vec<Column>,
        swept: Vec<(u32, u32)>,
    ) -> Self {
        let mut start = 0;
        for run in swept.chunk_by(|a, b| a.1 == b.1) {
            let end = start + run.len() as u32;
            columns[run[0].1 as usize].stored = (start, end);
            start = end;
        }
        PlanStore {
            rows,
            map,
            columns,
            swept,
            inserted: Vec::new(),
        }
    }

    /// Column `c`'s score in `row`.
    fn score<'s>(&'s self, row: &'s [(u32, PlanScore)], c: u32) -> &'s PlanScore {
        match row.binary_search_by_key(&c, |e| e.0) {
            Ok(p) => &row[p].1,
            Err(_) => &self.columns[c as usize].fallback,
        }
    }

    /// The score of cell `(i, k)`; `None` for a vehicle outside the fleet.
    pub(super) fn cell(&self, i: usize, k: usize) -> Option<PlanScore> {
        let c = self.map.column_of(k)?;
        Some(*self.score(&self.rows[i], c))
    }

    /// Folds `f` over row `i` vehicle by vehicle: each stored cell once per
    /// current member of its column, in row order (see the type docs).
    pub(super) fn fold<A>(
        &self,
        i: usize,
        init: A,
        mut f: impl FnMut(A, VehicleId, &PlanScore) -> A,
    ) -> A {
        self.rows[i].iter().fold(init, |acc, (c, p)| {
            let members = self.map.members(c).iter();
            members.fold(acc, |acc, &k| f(acc, VehicleId::from_index(k as usize), p))
        })
    }

    /// Stores the freshly evaluated score of commit-delta cell `(i, c)`,
    /// inserting the cell (and indexing it) if the row did not hold it.
    pub(super) fn store(&mut self, i: usize, c: usize, score: PlanScore) {
        let row = &mut self.rows[i];
        match row.binary_search_by_key(&(c as u32), |e| e.0) {
            Ok(p) => row[p].1 = score,
            Err(p) => {
                row.insert(p, (c as u32, score));
                let head = &mut self.columns[c].inserted;
                self.inserted.push((i as u32, *head));
                *head = (self.inserted.len() - 1) as u32;
            }
        }
    }

    /// Overwrites the stored cell `(i, c)` — one [`PlanStore::stored_rows`]
    /// listed — with `c`'s fallback (which the caller refreshed first): a
    /// commit delta pruned it.
    pub(super) fn prune_stored(&mut self, i: usize, c: usize) {
        let row = &mut self.rows[i];
        let p = row
            .binary_search_by_key(&(c as u32), |e| e.0)
            .expect("the column index lists stored cells only");
        row[p].1 = self.columns[c].fallback;
    }

    /// The rows that store a cell of column `c`.
    pub(super) fn stored_rows(&self, c: usize) -> impl Iterator<Item = usize> + '_ {
        let (start, end) = self.columns[c].stored;
        let mut next = self.columns[c].inserted;
        let inserted = std::iter::from_fn(move || {
            let (row, before) = *self.inserted.get(next as usize)?;
            next = before;
            Some(row)
        });
        let swept = self.swept[start as usize..end as usize].iter();
        swept.map(|cell| cell.0).chain(inserted).map(|i| i as usize)
    }

    /// Whether any vehicle currently has a feasible plan for row `i`.
    /// Fallback cells are `best: None` by construction, so scanning the
    /// stored cells of columns that still stand for a vehicle is
    /// exhaustive.
    pub(super) fn row_feasible(&self, i: usize) -> bool {
        let row = &self.rows[i];
        row.iter()
            .any(|(c, p)| p.feasible() && !self.map.members(c).is_empty())
    }

    /// Row `i` materialised as [`DispatchContext`] exposes it: one plan per
    /// column some vehicle reads, numbered by first member, and each
    /// vehicle's index into them (`(column_plans, column_of)`). A feasible
    /// cell's route and schedule are built once per column, on its lowest
    /// member's current view, so the row must be an undecided one (see
    /// [`DecisionBatch::with_context`]). That view stands for every member
    /// because [`RoutePlanner::materialise`] reads neither `view.vehicle`
    /// nor `view.used`, and the members agree on everything else it reads
    /// — in debug builds this is asserted member by member.
    pub(super) fn row_materialised(
        &self,
        i: usize,
        planner: &RoutePlanner<'_>,
        views: &[VehicleView],
        order: &Order,
    ) -> (Vec<PlannerOutput>, Vec<u32>) {
        let row = &self.rows[i];
        let mut plans = Vec::with_capacity(views.len());
        let mut column_of: Vec<u32> = Vec::with_capacity(views.len());
        for (k, &c) in self.map.column_of.iter().enumerate() {
            let first = self.map.members(&c)[0] as usize;
            if first == k {
                column_of.push(plans.len() as u32);
                plans.push(planner.materialise(self.score(row, c), &views[k], order));
            } else {
                debug_assert!(
                    interchangeable(&views[first], &views[k]),
                    "vehicles {first} and {k} share column {c} but differ as Algorithm 2 input"
                );
                column_of.push(column_of[first]);
            }
        }
        (plans, column_of)
    }
}

/// Whether `b` is the same Algorithm 2 and ST Score input as `a`, its
/// column's first member: both are parked — empty route, nothing on board
/// — at one anchor node and anchor time (bit for bit), with one depot.
/// What the twin key of `EpochScratch::group_twins` promises, checked
/// where a member's plan is taken from the first member's view.
fn interchangeable(a: &VehicleView, b: &VehicleView) -> bool {
    let parked = |v: &VehicleView| v.route.is_empty() && v.onboard.is_empty();
    parked(a)
        && parked(b)
        && a.anchor_node == b.anchor_node
        && a.anchor_time.seconds().to_bits() == b.anchor_time.seconds().to_bits()
        && a.depot == b.depot
}

/// One epoch order as a commit delta sees it: the order-only half of the
/// exact bound and the order's shard are fixed for the epoch (the sweep's
/// classification computed both; see [`SweepBuffers`]), so a delta cell
/// costs the accepting vehicle's anchor → pickup leg and a comparison.
#[derive(Debug)]
pub(super) struct DeltaRow {
    /// [`RoutePlanner::prune_probe`] of the order.
    pub(super) probe: PruneProbe,
    /// Shard of the order's pickup node under the epoch's partition.
    pub(super) shard: u32,
    /// Stamp of the latest acceptance whose vehicle this row stores a cell
    /// of (see [`PlanStore::stored_rows`]); 0 = none yet.
    pub(super) holds: u32,
}
