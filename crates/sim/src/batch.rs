//! Batched decision epochs: the unit of work a [`Dispatcher`] sees.
//!
//! The paper's Algorithm 1 frames dispatch as a sequence of *decision
//! epochs*: every order whose decision time lands on the same instant is
//! decided against one shared fleet snapshot. A [`DecisionBatch`] carries
//! that snapshot — one [`VehicleView`] per vehicle and a [`PlanScore`] for
//! every `(order, vehicle)` pair — and maintains it *incrementally* as
//! decisions are committed: accepting an order rescores only the chosen
//! vehicle's entries for the still-undecided orders (a per-order plan
//! delta), so a batch of `B` orders over `K` vehicles costs one full
//! `B x K` scoring sweep plus at most `B` single-vehicle rescorings,
//! instead of `B` full sweeps. Both the sweep and the deltas skip the
//! cells the shard layout's exact bound rules out, and the matrix never
//! stores them: a delta costs what it evaluates. An unsharded epoch is the
//! one-cell layout, whose bound rules out nothing: it runs the same build
//! and the same commit, and stores every active vehicle's cell.
//!
//! **An epoch costs its distinct work.** Half of the objective is the
//! number of used vehicles, so a good policy leaves most of a large fleet
//! parked, and every parked truck at one depot is the same input to
//! Algorithm 2. An *idle twin* is an unmasked vehicle with an empty
//! remaining route and nothing on board; two of them that agree on
//! `(anchor_node, anchor_time, depot)` get bit-identical scores for every
//! order. The key is complete because nothing else reaches the arithmetic:
//! capacity, speed and service time are fleet-wide ([`FleetConfig`]), the
//! route and the cargo stack are empty by definition, and neither the
//! schedule cache nor the insertion sweep nor the oracle walk reads
//! `view.vehicle` or `view.used`. The batch build therefore groups the
//! twins into the epoch's **column map** (`EpochScratch::group_twins`): a
//! group of two or more is *one column* of the plan matrix, everybody else
//! their own. The sweep classifies a group once, the epoch reads one
//! [`ScheduleCache`] per column and scores each `(order, column)` once
//! (`EpochScratch::score_cells`), and a row stores that one cell — so
//! classification, scoring, storage and the searches of commit deltas cost
//! the epoch's distinct vehicles, not its fleet. Readers expand a group cell to its
//! members: [`DecisionBatch::fold_candidates`] hands each current member
//! the group's score, and [`DecisionBatch::with_context`] materialises it
//! once for all of them. A masked (broken-down) vehicle, whose stripped
//! route only *looks* idle, is never grouped. A member that accepts an
//! order stops being a twin: it leaves its group for its own column, and
//! its commit deltas are one vehicle's column like any other's. Deltas keep
//! the sweep's column-major work list as a **column index**, so an
//! acceptance touches only the rows that hold a cell of its column instead
//! of searching every undecided row for one (see `PlanStore`).
//!
//! **A cell is positions, a route is for a winner.** Algorithm 2 hands a
//! policy a few scalars per pair and one route, the one the chosen
//! vehicle adopts; the matrix holds exactly the scalars. A [`PlanScore`]
//! is `d_{t,k}` plus the best insertion as positions, length and counts —
//! `Copy`, 40 bytes, no heap — and is only meaningful against the vehicle
//! view it was scored on. A [`dpdp_routing::Route`] and
//! [`dpdp_routing::Schedule`] are built ([`RoutePlanner::materialise`])
//! in two places, by whoever reads them: [`DecisionBatch::resolve`]
//! materialises the one accepted cell for the commit record, and
//! [`DecisionBatch::with_context`] materialises the row it shows a
//! per-order policy, for the length of that call. Every acceptance
//! rescores the accepting vehicle's column for every undecided row, so an
//! undecided row's positions always refer to the current views; the row
//! of a resolved order is left behind and is never materialised again.
//!
//! The batch is the matrix's only writer and policies keep no copy of it.
//! They read an order's row when they decide it — materialised per column
//! through [`DecisionBatch::with_context`], or as the candidate row of
//! scores [`DecisionBatch::fold_candidates`] folds over.
//!
//! Sequential commit through [`DecisionBatch::resolve`] reproduces the
//! legacy one-order-at-a-time semantics exactly (same snapshot evolution,
//! same plan values), which is what makes the batch/serial parity tests in
//! this crate and `dpdp-baselines` possible.
//!
//! [`Dispatcher`]: crate::dispatcher::Dispatcher

use crate::dispatcher::DispatchContext;
use crate::profile::{self, Stage, StageClock};
use crate::state::VehicleState;
use crate::sweep::{plan_sweep, ShardContext, ShardStats, SweepBuffers};
use caches::CacheSlot;
use dpdp_net::{FleetConfig, Order, OrderId, RoadNetwork, TimePoint, VehicleId};
use dpdp_pool::ThreadPool;
use dpdp_routing::{PlanScore, PlannerOutput, RoutePlanner, ScheduleCache, VehicleView};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;
pub(crate) use store::ColumnMap;
use store::{Column, DeltaRow, PlanStore};

mod caches;
mod store;

/// Why a [`Decision`] turned out the way it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// The order was assigned to a feasible vehicle.
    Assigned,
    /// No vehicle had a feasible insertion for the order.
    NoFeasibleVehicle,
    /// Feasible vehicles existed but the policy declined them all.
    PolicyRejected,
    /// The policy chose a vehicle whose plan was infeasible at commit time.
    InfeasibleChoice,
    /// The order was cancelled by an [`OrderCancelled`] event — either
    /// before it reached a dispatcher, or after assignment while its pickup
    /// was still undriven (the assignment is revoked by route surgery).
    ///
    /// [`OrderCancelled`]: crate::event::SimEvent::OrderCancelled
    Cancelled,
    /// The order's serving vehicle broke down after the pickup was
    /// executed: the cargo is stuck on the dead vehicle and the order
    /// cannot be re-dispatched (see
    /// [`VehicleBreakdown`](crate::event::SimEvent::VehicleBreakdown)).
    VehicleLost,
}

/// One dispatch outcome produced by [`Dispatcher::dispatch_batch`].
///
/// [`Dispatcher::dispatch_batch`]: crate::dispatcher::Dispatcher::dispatch_batch
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The order decided.
    pub order: OrderId,
    /// The serving vehicle, or `None` for a rejection.
    pub vehicle: Option<VehicleId>,
    /// Why.
    pub reason: DecisionReason,
}

impl Decision {
    /// An accepted assignment.
    pub fn assigned(order: OrderId, vehicle: VehicleId) -> Self {
        Decision {
            order,
            vehicle: Some(vehicle),
            reason: DecisionReason::Assigned,
        }
    }

    /// A rejection with the given reason.
    pub fn rejected(order: OrderId, reason: DecisionReason) -> Self {
        Decision {
            order,
            vehicle: None,
            reason,
        }
    }

    /// Whether the order was assigned.
    #[inline]
    pub fn is_assigned(&self) -> bool {
        self.vehicle.is_some()
    }
}

/// Everything [`DecisionBatch::resolve`] recorded about one committed
/// decision — what the engine turns into the episode's assignment record
/// and observer call once the epoch's dispatch returns.
#[derive(Debug)]
pub(crate) struct CommitRecord {
    /// The decision `resolve` returned.
    pub(crate) decision: Decision,
    /// Commit details, present iff the decision assigned a vehicle.
    pub(crate) assignment: Option<CommitAssignment>,
}

/// The committed side of an assignment, captured before the vehicle's
/// state mutated.
#[derive(Debug)]
pub(crate) struct CommitAssignment {
    /// The chosen vehicle's view before accepting the order.
    pub(crate) pre_view: VehicleView,
    /// The validated Algorithm 2 output the assignment committed.
    pub(crate) plan: PlannerOutput,
    /// Whether the vehicle had been used before this assignment.
    pub(crate) vehicle_was_used: bool,
}

/// "No entry" in the scratch index tables below.
const NONE: u32 = u32::MAX;

/// Reusable per-epoch scratch arena for [`DecisionBatch::new`], kept for
/// one episode.
///
/// The driver loops (simulator episodes, server engine sessions) build one
/// `DecisionBatch` per decision epoch; without an arena every epoch pays
/// a fresh round of allocations for the sweep classification buffers, the
/// idle-twin grouping and one `ScheduleCache` per vehicle. An
/// `EpochScratch` owned by the loop and threaded into `new` keeps all of
/// that storage alive across epochs: buffers are cleared, never freed, so
/// steady-state epochs allocate only when the fleet or epoch outgrows
/// every previous one. The schedule caches keep more than storage: each
/// slot keeps the cache it last built and the view it built it from, and
/// is rebuilt only when that view changed (see `caches`). The column map,
/// the work list, the cache slots and the commit-delta rows are lent to
/// the batch for the length of the epoch and handed back by
/// [`DecisionBatch::into_parts`].
///
/// Reuse is invisible in the output: a cache is kept only for a view equal
/// to its own in every field the build reads, cache rebuilds run the
/// identical passes over cleared vectors (see `ScheduleCache::rebuild`),
/// the sweep and grouping buffers are overwritten before use, and the
/// per-vehicle refresh fan-out writes disjoint slots whose values do not
/// depend on scheduling — so a dirty scratch produces bit-identical plans
/// to a fresh one at any thread count
/// (`dirty_epoch_scratch_is_bit_identical_to_fresh` below).
#[derive(Debug, Default)]
pub(crate) struct EpochScratch {
    /// Sharded-sweep classification buffers (see [`SweepBuffers`]).
    pub(crate) sweep: SweepBuffers,
    /// One schedule cache slot per vehicle, kept for the episode: a live
    /// slot is rebuilt in place only when its vehicle's view no longer
    /// matches the key it was built from, and an acceptance rebuilds and
    /// re-keys the accepting vehicle's own slot.
    caches: Vec<CacheSlot>,
    /// `cache_live[k]`: whether `caches[k]` is read this epoch — `k` is the
    /// lowest member of a column some cell of which is scored — and so is
    /// brought up to date with `k`'s view. Dead slots keep their cache and
    /// key for later epochs but are not read in this one.
    cache_live: Vec<bool>,
    /// The epoch's column map, built by [`EpochScratch::group_twins`].
    column_map: ColumnMap,
    /// `twin_rep[k]`: the lowest-numbered member of `k`'s idle-twin group,
    /// `k` itself for everybody else.
    twin_rep: Vec<u32>,
    /// Grouping scratch: the latest representative anchored at each node.
    /// All [`NONE`] between epochs (reset per anchor, not per node).
    node_rep: Vec<u32>,
    /// Grouping scratch: `next_rep[r]` chains the representatives that
    /// share `r`'s anchor node but not its anchor time or depot.
    next_rep: Vec<u32>,
    /// Rows-build scratch: stored cells per row.
    row_len: Vec<usize>,
    /// The storage of the previous epoch's commit-delta rows.
    delta_rows: Vec<DeltaRow>,
}

impl EpochScratch {
    /// Groups this epoch's **idle twins** — unmasked vehicles with an empty
    /// remaining route and nothing on board that share anchor node, anchor
    /// time (bit for bit) and depot — into the epoch's [`ColumnMap`]. One
    /// pass in ascending vehicle order over a node-indexed table of short
    /// chains, so a group's representative is its lowest vehicle id, the
    /// cost is `O(K)` and the result depends on nothing but the views. See
    /// the module docs for why the key is complete.
    fn group_twins(&mut self, views: &[VehicleView], active: Option<&[bool]>, num_nodes: usize) {
        let k_n = views.len();
        self.twin_rep.clear();
        self.twin_rep.extend(0..k_n as u32);
        self.next_rep.clear();
        self.next_rep.resize(k_n, NONE);
        if self.node_rep.len() < num_nodes {
            self.node_rep.resize(num_nodes, NONE);
        }
        for (k, v) in views.iter().enumerate() {
            let idle = v.route.is_empty() && v.onboard.is_empty();
            if !(idle && active.is_none_or(|a| a[k])) {
                continue;
            }
            let head = self.node_rep[v.anchor_node.index()];
            let mut r = head;
            while r != NONE {
                let rv = &views[r as usize];
                if rv.anchor_time.seconds().to_bits() == v.anchor_time.seconds().to_bits()
                    && rv.depot == v.depot
                {
                    break;
                }
                r = self.next_rep[r as usize];
            }
            if r == NONE {
                // First of its kind at this node: a new representative.
                self.next_rep[k] = head;
                self.node_rep[v.anchor_node.index()] = k as u32;
            } else {
                self.twin_rep[k] = r;
            }
        }
        for v in views {
            self.node_rep[v.anchor_node.index()] = NONE;
        }
        self.column_map.group(&self.twin_rep);
    }

    /// The initial sweep's scoring: scores the `(order index, column)`
    /// cells of `work`, the classified work list of the epoch's column map,
    /// cell `w`'s score into slot `w` of the result. The cells are
    /// distinct, so nothing is scored twice: a twin group is one column,
    /// and its one cell per order is every member's score (see the module
    /// docs).
    ///
    /// Brings one [`ScheduleCache`] per column that has a cell up to date —
    /// in its lowest member's slot, rebuilt only if that member's view
    /// changed since the slot was built; classification keeps no cell of a
    /// masked vehicle, so it gets none — and runs
    /// [`RoutePlanner::score_cached`] once per cell on that member's view,
    /// fanned out across `pool`. Returns the scores and the number of
    /// caches rebuilt.
    fn score_cells(
        &mut self,
        planner: &RoutePlanner<'_>,
        views: &[VehicleView],
        epoch: &[OrderId],
        pool: &ThreadPool,
        work: &[(u32, u32)],
    ) -> (Vec<PlanScore>, usize) {
        self.caches.resize_with(views.len(), CacheSlot::default);
        self.cache_live.clear();
        self.cache_live.resize(views.len(), false);
        for (_, c) in work {
            self.cache_live[self.column_map.members(c)[0] as usize] = true;
        }
        let built = caches::refresh(&mut self.caches, &self.cache_live, planner, views, pool);
        let scr = &*self;
        let scores = pool.par_map(work.len(), |w| {
            let (i, c) = work[w];
            let rep = scr.column_map.members(&c)[0] as usize;
            let order = &planner.orders()[epoch[i as usize].index()];
            planner.score_cached(scr.caches[rep].cache(), &views[rep], order)
        });
        (scores, built)
    }

    /// The cache read for vehicle `k` this epoch, if any.
    #[inline]
    fn cache(&self, k: usize) -> Option<&ScheduleCache> {
        self.cache_live[k].then(|| self.caches[k].cache())
    }

    /// The per-column side of the epoch just scored: each column's pruned
    /// score (`best: None` plus its `d_{t,k}`), computed once per twin
    /// group — a member's own column and the group's take the
    /// representative's, the same anchor-to-depot leg — over a still empty
    /// column index.
    fn columns(&self, planner: &RoutePlanner<'_>, views: &[VehicleView]) -> Vec<Column> {
        let mut columns: Vec<Column> = Vec::with_capacity(self.column_map.num_columns());
        for (k, view) in views.iter().enumerate() {
            let rep = self.twin_rep[k] as usize;
            let fallback = if rep < k {
                columns[rep].fallback
            } else {
                planner.pruned_score(self.cache(k), view)
            };
            columns.push(Column::new(fallback));
        }
        for c in views.len() as u32..self.column_map.num_columns() as u32 {
            let rep = self.column_map.members(&c)[0] as usize;
            columns.push(Column::new(columns[rep].fallback));
        }
        columns
    }
}

/// Interior state of a batch: evolves as decisions are committed.
#[derive(Debug)]
struct BatchInner {
    /// The episode's fleet — its view column, dense by vehicle — owned by
    /// the batch for the length of the epoch: the slice every
    /// [`DispatchContext`] reads, and the views a committed acceptance
    /// mutates in place, here and nowhere else
    /// ([`DecisionBatch::into_parts`] hands them back).
    views: Vec<VehicleView>,
    /// The fleet's other column, each vehicle's [`VehicleState`], moved in
    /// and out with the views.
    states: Vec<VehicleState>,
    /// The epoch's plan matrix: candidate-sparse rows, complete but for
    /// masked vehicles under one cell.
    plans: PlanStore,
    /// The epoch orders nobody resolved yet, ascending: the rows commit
    /// deltas maintain. [`DecisionBatch::resolve`] removes its order.
    undecided: Vec<u32>,
    /// Per-order commit records, filled by `resolve`.
    commits: Vec<Option<CommitRecord>>,
    /// Sweep work accounting (initial matrix plus commit deltas).
    stats: ShardStats,
    /// Per epoch order, what a commit delta classifies its cell with.
    delta_rows: Vec<DeltaRow>,
    /// Acceptances committed so far: the stamp [`DeltaRow::holds`] is
    /// compared against.
    acceptances: u32,
    /// The episode's cache slots, one per vehicle, lent by the scratch:
    /// an acceptance rebuilds and re-keys the accepting vehicle's own slot
    /// for its new route, which its commit delta scores against and a later
    /// epoch may keep.
    caches: Vec<CacheSlot>,
}

/// All orders flushed at one decision epoch, sharing one fleet snapshot.
///
/// Built by the [`Simulator`] once per epoch and handed to
/// [`Dispatcher::dispatch_batch`]. Policies read per-order joint states via
/// [`DecisionBatch::with_context`] (or just the candidate row, via
/// [`DecisionBatch::fold_candidates`]) and commit outcomes via
/// [`DecisionBatch::resolve`]; the shared snapshot is delta-updated after
/// every acceptance so later orders in the batch see the committed routes,
/// exactly as the legacy per-order path did. The row of an order already
/// resolved is not maintained: `with_context` on it panics, and
/// `fold_candidates` reads whatever scores it held when it was resolved.
///
/// The batch is assembled as a *merge of shard-local batches* under the
/// layout of [`SimulatorBuilder::sharding`]: in-shard `(order, vehicle)`
/// pairs run the full insertion sweep as shard-grouped pool tasks,
/// cross-shard pairs go through the deterministic escalation/prune rule of
/// [`crate::sweep`], and the resulting plan matrix is **bit-identical**
/// under every layout — policies cannot tell the difference, only wall
/// time moves. The unsharded default is the one-cell layout: every pair
/// is in-shard.
///
/// [`Simulator`]: crate::simulator::Simulator
/// [`SimulatorBuilder::sharding`]: crate::simulator::SimulatorBuilder::sharding
/// [`Dispatcher::dispatch_batch`]: crate::dispatcher::Dispatcher::dispatch_batch
#[derive(Debug)]
pub struct DecisionBatch<'a> {
    now: TimePoint,
    interval: usize,
    net: &'a RoadNetwork,
    fleet: &'a FleetConfig,
    orders: &'a [Order],
    epoch_orders: Vec<OrderId>,
    pool: Arc<ThreadPool>,
    shards: ShardContext,
    /// Per-vehicle availability mask (`None` = every vehicle available).
    /// Masked vehicles — e.g. broken down mid-episode — keep their dense
    /// slot in the snapshot but are excluded from the insertion sweep:
    /// their plans arrive as `best: None`, so no policy can choose them.
    active: Option<Vec<bool>>,
    inner: RefCell<BatchInner>,
    /// The epoch's profile clock, when the epoch is profiled (see
    /// [`crate::profile`]).
    clock: Option<RefCell<StageClock>>,
}

impl<'a> DecisionBatch<'a> {
    /// Builds a batch over the given epoch orders, taking the episode's
    /// fleet — its views and states — by move (there is no second copy of
    /// the fleet, and no view is cloned: [`DecisionBatch::into_parts`]
    /// returns them). The initial
    /// `B x K` Algorithm 2 sweep is scored across `pool`'s threads, each
    /// `(order, column)` score landing in its pre-indexed matrix slot —
    /// bit-identical to the serial sweep for any thread count. No route is
    /// built here.
    ///
    /// The fleet's idle twins are grouped first (see the module docs): a
    /// group is one column of the matrix, so classification, scoring and
    /// storage see one `(order, group)` cell where there used to be one
    /// per member. Each column's [`ScheduleCache`] — prefix/suffix
    /// schedule passes and the current route length `d_{t,k}` — is shared
    /// by every order of the batch, and is built here only if its lowest
    /// member's view changed since that vehicle's slot of `scratch` was last
    /// built (by an earlier sweep, or by the commit of its last acceptance):
    /// the sweep costs at most one cache build per column that has a cell
    /// to score ([`ShardStats::caches_built`] counts them), plus one O(n²)
    /// incremental evaluation per cell classification kept. The
    /// classification's column-major work list says which cells exist (a
    /// one-cell layout keeps every active column's), and it is kept as the
    /// store's column index.
    ///
    /// A profiled epoch's `clock` is charged the build's three stages —
    /// [`Stage::Classify`], [`Stage::Score`], [`Stage::Store`] — and,
    /// afterwards, every row [`DecisionBatch::with_context`] materialises
    /// and every [`DecisionBatch::resolve`].
    #[allow(clippy::too_many_arguments)] // crate-private; mirrors the fields
    pub(crate) fn new(
        now: TimePoint,
        interval: usize,
        net: &'a RoadNetwork,
        fleet: &'a FleetConfig,
        orders: &'a [Order],
        epoch_orders: Vec<OrderId>,
        views: Vec<VehicleView>,
        states: Vec<VehicleState>,
        pool: Arc<ThreadPool>,
        shards: ShardContext,
        active: Option<Vec<bool>>,
        mut clock: Option<StageClock>,
        scratch: &mut EpochScratch,
    ) -> Self {
        let planner = RoutePlanner::new(net, fleet, orders);
        let epoch = &epoch_orders;
        let active_ref = active.as_deref();
        scratch.group_twins(&views, active_ref, net.nodes().len());
        // Classify every cell, score the surviving cells shard-grouped
        // across the pool, and store them as candidate-sparse rows over the
        // per-column pruned fallback. Every pruned cell's output is
        // bit-identical to what its full evaluation would have produced
        // (see crate::sweep), so queries cannot tell the difference. A
        // masked vehicle, or a column that pruned whole, gets no schedule
        // cache (its `d_{t,k}` comes from `Route::length`, which
        // accumulates the same legs in the same order as the cache's
        // forward pass).
        let mut stats = plan_sweep(
            &shards,
            &planner,
            &views,
            epoch,
            active_ref,
            &scratch.column_map,
            &pool,
            &mut scratch.sweep,
        );
        profile::lap(&mut clock, Stage::Classify);
        let work = std::mem::take(&mut scratch.sweep.work);
        let (scores, built) = scratch.score_cells(&planner, &views, epoch, &pool, &work);
        profile::lap(&mut clock, Stage::Score);
        stats.shared = stats.evaluated - work.len();
        stats.caches_built = built;
        // `work` is column-major, so a row's cells arrive scattered: count
        // them first and size every row exactly.
        let row_len = &mut scratch.row_len;
        row_len.clear();
        row_len.resize(epoch.len(), 0);
        for &(i, _) in &work {
            row_len[i as usize] += 1;
        }
        let mut rows: Vec<Vec<(u32, PlanScore)>> =
            row_len.iter().map(|&n| Vec::with_capacity(n)).collect();
        for (&(i, c), &score) in work.iter().zip(&scores) {
            rows[i as usize].push((c, score));
        }
        for row in &mut rows {
            row.sort_unstable_by_key(|e| e.0);
        }
        // What the classification computed per order, kept for the commit
        // deltas to classify with.
        let sweep = &scratch.sweep;
        let mut delta_rows = std::mem::take(&mut scratch.delta_rows);
        delta_rows.clear();
        delta_rows.reserve_exact(epoch.len());
        delta_rows.extend(
            (sweep.probes.iter().zip(&sweep.order_shard)).map(|(&probe, &shard)| DeltaRow {
                probe,
                shard,
                holds: 0,
            }),
        );
        // The column index is the work list itself, moved.
        let columns = scratch.columns(&planner, &views);
        let caches = std::mem::take(&mut scratch.caches);
        let map = std::mem::take(&mut scratch.column_map);
        let plans = PlanStore::new(rows, map, columns, work);
        let undecided = (0..epoch_orders.len() as u32).collect();
        let commits = (0..epoch_orders.len()).map(|_| None).collect();
        profile::lap(&mut clock, Stage::Store);
        DecisionBatch {
            now,
            interval,
            net,
            fleet,
            orders,
            epoch_orders,
            pool,
            shards,
            active,
            inner: RefCell::new(BatchInner {
                views,
                states,
                plans,
                undecided,
                commits,
                stats,
                delta_rows,
                acceptances: 0,
                caches,
            }),
            clock: clock.map(RefCell::new),
        }
    }

    /// Runs `f`, charged to `stage` as one call nested in the running
    /// stage when the epoch is profiled.
    fn timed<R>(&self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let Some(clock) = &self.clock else {
            return f();
        };
        let since = Instant::now();
        let out = f();
        clock.borrow_mut().charge(stage, since);
        out
    }

    /// Ends the running stage of a profiled epoch as `stage`.
    pub(crate) fn lap(&self, stage: Stage) {
        if let Some(clock) = &self.clock {
            clock.borrow_mut().lap(stage);
        }
    }

    /// The thread pool decisions of this epoch may score on. Width 1 means
    /// strictly serial execution; any width yields identical results (see
    /// [`dpdp_pool::ThreadPool::par_map`]).
    #[inline]
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// Folds `f` over the `i`-th order's **candidate row** of the current
    /// snapshot, one call per vehicle — the one read primitive batch-native
    /// policies pick a vehicle with, called at decision time so there is no
    /// policy-side copy of the matrix to keep in sync. A cell is a
    /// [`PlanScore`]: the scalars an argmin ranks on. Nothing is
    /// materialised here; the route of the cell the policy picks is built
    /// once, by [`DecisionBatch::resolve`].
    ///
    /// The row is stored per column (see the module docs): the vehicles
    /// that stand for themselves come first, in ascending order, then each
    /// idle-twin group's current members, consecutive and ascending, all
    /// handed the group's one score. The visit order is therefore not
    /// ascending overall: a policy that breaks ties toward the lower
    /// vehicle id must compare ids, not keep the first of equal keys.
    ///
    /// The row holds the cells the initial sweep or a later commit delta
    /// actually evaluated; every vehicle it omits is masked or provably
    /// infeasible for this order (`best: None`), so an argmin over feasible
    /// plans sees the same winner as a dense scan. A one-cell row holds
    /// every active vehicle. A row changes only when
    /// [`DecisionBatch::resolve`] commits an acceptance: the accepting
    /// vehicle leaves its group, if any, and its cell is rescored for every
    /// still-undecided order. The row of an already resolved order is not
    /// maintained — folding over it is allowed, reads scores that may be
    /// stale and omits the vehicles that left a group after it was
    /// resolved.
    ///
    /// # Panics
    /// Panics if `i >= len()`, or when called while the snapshot is mutably
    /// borrowed (inside [`DecisionBatch::resolve`]).
    pub fn fold_candidates<A>(
        &self,
        i: usize,
        init: A,
        f: impl FnMut(A, VehicleId, &PlanScore) -> A,
    ) -> A {
        self.inner.borrow().plans.fold(i, init, f)
    }

    /// The decision [`DecisionBatch::resolve`] committed for the `i`-th
    /// order, or `None` while it is unresolved.
    pub(crate) fn committed(&self, i: usize) -> Option<Decision> {
        self.inner.borrow().commits[i].as_ref().map(|c| c.decision)
    }

    /// Tears the batch down into its per-order commit records (`None` for
    /// an order nobody resolved) and a profiled epoch's clock. The fleet it
    /// was built from, every committed acceptance applied, moves back into
    /// `views` and `states`, and the storage the batch borrowed from
    /// `scratch` goes back to it for the next epoch.
    pub(crate) fn into_parts(
        self,
        scratch: &mut EpochScratch,
        views: &mut Vec<VehicleView>,
        states: &mut Vec<VehicleState>,
    ) -> (Vec<Option<CommitRecord>>, Option<StageClock>) {
        let inner = self.inner.into_inner();
        scratch.column_map = inner.plans.map;
        scratch.sweep.work = inner.plans.swept;
        scratch.delta_rows = inner.delta_rows;
        scratch.caches = inner.caches;
        *views = inner.views;
        *states = inner.states;
        (inner.commits, self.clock.map(RefCell::into_inner))
    }

    /// Number of orders in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.epoch_orders.len()
    }

    /// Whether the batch is empty (never produced by the simulator).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.epoch_orders.is_empty()
    }

    /// The shared decision time of every order in the batch.
    #[inline]
    pub fn now(&self) -> TimePoint {
        self.now
    }

    /// Index of the epoch's time interval on the instance grid.
    #[inline]
    pub fn interval(&self) -> usize {
        self.interval
    }

    /// Number of vehicles in the shared snapshot.
    pub fn num_vehicles(&self) -> usize {
        self.inner.borrow().views.len()
    }

    /// Whether vehicle `k` is available to this epoch. Vehicles masked out
    /// (broken down mid-episode) keep their dense snapshot slot but every
    /// plan of theirs is `best: None`, so policies cannot choose them.
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn vehicle_active(&self, k: VehicleId) -> bool {
        assert!(k.index() < self.num_vehicles(), "vehicle out of range");
        self.active.as_ref().is_none_or(|a| a[k.index()])
    }

    /// Number of geographic shards (cells) the epoch was scored with; 1
    /// for the default, unsharded layout.
    pub fn num_shards(&self) -> usize {
        self.shards.map.num_shards()
    }

    /// Work accounting of the sweep so far: the initial `B x K` matrix
    /// plus every commit delta already applied. The counters describe
    /// *work* — what the partition pruned and what the idle twins shared
    /// — and decisions are bit-identical regardless.
    pub fn shard_stats(&self) -> ShardStats {
        self.inner.borrow().stats
    }

    /// The shard owning the `i`-th order (its pickup node's region); 0 for
    /// every order of a one-cell layout.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn shard_of_order(&self, i: usize) -> usize {
        self.shards.map.shard_of(self.order(i).pickup)
    }

    /// The shard a vehicle currently belongs to (its anchor node's region,
    /// which moves as commits advance the vehicle); 0 for every vehicle of
    /// a one-cell layout.
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn shard_of_vehicle(&self, k: VehicleId) -> usize {
        let anchor = self.inner.borrow().views[k.index()].anchor_node;
        self.shards.map.shard_of(anchor)
    }

    /// Ids of the orders flushed at this epoch, in creation order.
    #[inline]
    pub fn order_ids(&self) -> &[OrderId] {
        &self.epoch_orders
    }

    /// The `i`-th order of the batch.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn order(&self, i: usize) -> &Order {
        &self.orders[self.epoch_orders[i].index()]
    }

    /// Whether any vehicle can currently take the `i`-th order.
    pub fn any_feasible(&self, i: usize) -> bool {
        self.inner.borrow().plans.row_feasible(i)
    }

    /// Runs `f` with the `i`-th order's [`DispatchContext`], built from the
    /// batch's *current* (delta-updated) snapshot. This is the joint state
    /// `S^i_t` a legacy per-order policy would have seen at this point of
    /// the sequential commit order. The context's plans are materialised
    /// for this call — one route and schedule per feasible column of the
    /// plan matrix, on its lowest member's current view — and dropped when
    /// it returns.
    ///
    /// # Panics
    /// Panics if `i >= len()`, or if the order was already resolved: its
    /// row is no longer maintained, and positions scored against a route
    /// that has since changed cannot be materialised. The batch's shared
    /// snapshot is borrowed for the duration of `f`, so calling
    /// [`DecisionBatch::resolve`] (or any other batch method) from
    /// *inside* `f` panics with a `RefCell` borrow error — read the
    /// context, return the choice, and resolve outside the closure.
    pub fn with_context<R>(&self, i: usize, f: impl FnOnce(&DispatchContext<'_>) -> R) -> R {
        let inner = self.inner.borrow();
        assert!(
            inner.commits[i].is_none(),
            "order {} already resolved: its row is no longer maintained",
            self.epoch_orders[i]
        );
        let planner = RoutePlanner::new(self.net, self.fleet, self.orders);
        let order = self.order(i);
        let views = &inner.views;
        let (column_plans, column_of) = self.timed(Stage::Materialise, || {
            inner.plans.row_materialised(i, &planner, views, order)
        });
        let ctx = DispatchContext {
            order,
            now: self.now,
            interval: self.interval,
            views,
            column_plans: &column_plans,
            column_of: &column_of,
            net: self.net,
            fleet: self.fleet,
            orders: self.orders,
        };
        f(&ctx)
    }

    /// Commits the policy's choice for the `i`-th order and returns the
    /// resulting [`Decision`].
    ///
    /// This is the episode's one commit: the engine adopts what happens
    /// here and replans nothing. An accepted choice materialises the chosen
    /// cell's route (the one route this order builds); the chosen vehicle
    /// adopts it, advances through any legs departing at the epoch instant,
    /// and its scores for the still-undecided orders of the batch are
    /// recomputed. A `None` choice or an infeasible vehicle yields a
    /// rejection with the matching [`DecisionReason`]; a vehicle id outside
    /// the fleet is an infeasible choice like any other
    /// ([`DecisionReason::InfeasibleChoice`]), not a panic.
    ///
    /// # Panics
    /// Panics if `i >= len()` or the order was already resolved. Must not
    /// be called from inside a [`DecisionBatch::with_context`] closure
    /// (the shared snapshot is still borrowed there).
    pub fn resolve(&self, i: usize, choice: Option<VehicleId>) -> Decision {
        self.timed(Stage::Resolve, || {
            let mut inner = self.inner.borrow_mut();
            assert!(
                inner.commits[i].is_none(),
                "order {} resolved twice in one batch",
                self.epoch_orders[i]
            );
            let at = inner
                .undecided
                .binary_search(&(i as u32))
                .expect("an order without a commit record is undecided");
            inner.undecided.remove(at);
            let oid = self.epoch_orders[i];
            let (decision, assignment) = Self::commit(&mut inner, self, i, oid, choice);
            inner.commits[i] = Some(CommitRecord {
                decision,
                assignment,
            });
            decision
        })
    }

    /// The body of [`DecisionBatch::resolve`]: classifies the choice and,
    /// for an acceptance, applies it to the vehicle's state and the
    /// snapshot.
    fn commit(
        inner: &mut BatchInner,
        batch: &DecisionBatch<'_>,
        i: usize,
        oid: OrderId,
        choice: Option<VehicleId>,
    ) -> (Decision, Option<CommitAssignment>) {
        let Some(k) = choice else {
            let reason = if inner.plans.row_feasible(i) {
                DecisionReason::PolicyRejected
            } else {
                DecisionReason::NoFeasibleVehicle
            };
            return (Decision::rejected(oid, reason), None);
        };
        let BatchInner {
            views,
            states,
            plans,
            undecided,
            stats,
            delta_rows,
            acceptances,
            caches,
            ..
        } = inner;
        // An id outside the fleet has no cell (untrusted input: the engine
        // resolves whatever vehicle a policy returned unresolved).
        let Some(score) = plans.cell(i, k.index()).filter(PlanScore::feasible) else {
            return (
                Decision::rejected(oid, DecisionReason::InfeasibleChoice),
                None,
            );
        };
        // The accepted cell is the one cell of the epoch whose route is
        // built: its positions were scored against the vehicle's current
        // view (every earlier acceptance on `k` rescored this row).
        let planner = RoutePlanner::new(batch.net, batch.fleet, batch.orders);
        let view = &mut views[k.index()];
        let plan = planner.materialise(&score, view, &batch.orders[oid.index()]);
        let best = plan.best.as_ref().expect("a feasible score materialises");
        // Accept the route, then advance through legs that depart at the
        // epoch instant, so later orders in the batch see the post-commit
        // anchor (no-interference rule). The view changes in place: it is
        // the one every later context of the epoch reads.
        let pre_view = view.clone();
        let vehicle_was_used = view.used;
        let state = &mut states[k.index()];
        state.accept(view, best.candidate.route.clone());
        state.advance_to(view, batch.now, batch.net, batch.fleet, batch.orders);
        // A twin no longer: `k` reads its own column from here on, and the
        // cells of the group it leaves stay right for the members left.
        plans.map.split(k.index());
        // The plan delta: only the accepting vehicle's column changes, and
        // only for the still-undecided orders — replanned in parallel, each
        // result landing back in its own row, all sharing one schedule
        // cache rebuilt for the vehicle's new route. The column gets the
        // same exact prune as the initial sweep (foreign
        // orders the bound rules out skip the sweep; no m-nearest
        // escalation here — a single column has no ranking to run), which
        // is bit-identical to replanning every cell. A pruned cell's value
        // is the vehicle's new fallback, written once below, so a pruned
        // delta cell costs its bound check and — unless the column index
        // says the row stores a now stale cell of `k` — touches no row.
        // The cache is built in `k`'s own slot and keyed with its new view:
        // nothing else reads the slot this epoch, and the next epoch keeps
        // it if the view has not moved by then.
        let view = &views[k.index()];
        let slot = &mut caches[k.index()];
        slot.rebuild(&planner, view);
        stats.caches_built += 1;
        let cache = slot.cache();
        plans.columns[k.index()].fallback = planner.pruned_score(Some(cache), view);
        let vehicle_shard = batch.shards.map.shard_of(view.anchor_node) as u32;
        *acceptances += 1;
        let stamp = *acceptances;
        for j in plans.stored_rows(k.index()) {
            delta_rows[j].holds = stamp;
        }
        let delta_rows = &*delta_rows;
        let (orders, epoch) = (batch.orders, &batch.epoch_orders);
        // `(score, foreign)` of delta cell `(j, k)`; `None` = pruned. The
        // stored probe runs the float expression `provably_infeasible`
        // would (see `PruneProbe::prunes`).
        let replan = |j: usize| {
            let order = &orders[epoch[j].index()];
            let foreign = delta_rows[j].shard != vehicle_shard;
            let pruned = foreign && {
                let to_pickup = planner.leg_time(view.anchor_node, order.pickup);
                delta_rows[j].probe.prunes(view.anchor_time, to_pickup)
            };
            if pruned {
                return (None, foreign);
            }
            (Some(planner.score_cached(cache, view, order)), foreign)
        };
        let mut record = |j: usize, (score, foreign): (Option<PlanScore>, bool)| {
            stats.cells += 1;
            match score {
                Some(score) => {
                    stats.evaluated += 1;
                    stats.escalated += usize::from(foreign);
                    plans.store(j, k.index(), score);
                }
                None => {
                    stats.pruned += 1;
                    if delta_rows[j].holds == stamp {
                        plans.prune_stored(j, k.index());
                    }
                }
            }
        };
        // Columns are usually short next to the pool's wake/join latency;
        // replan them inline below this size (the values are identical
        // either way — `par_map` already matches the serial order).
        const PAR_COLUMN_MIN: usize = 256;
        if undecided.len() < PAR_COLUMN_MIN {
            for &j in undecided.iter() {
                record(j as usize, replan(j as usize));
            }
        } else {
            let fresh = batch
                .pool
                .par_map(undecided.len(), |u| replan(undecided[u] as usize));
            for (&j, cell) in undecided.iter().zip(fresh) {
                record(j as usize, cell);
            }
        }
        (
            Decision::assigned(oid, k),
            Some(CommitAssignment {
                pre_view,
                plan,
                vehicle_was_used,
            }),
        )
    }
}

#[cfg(test)]
mod tests;
