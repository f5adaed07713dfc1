//! Batched decision epochs: the unit of work a [`Dispatcher`] sees.
//!
//! The paper's Algorithm 1 frames dispatch as a sequence of *decision
//! epochs*: every order whose decision time lands on the same instant is
//! decided against one shared fleet snapshot. A [`DecisionBatch`] carries
//! that snapshot — one [`VehicleView`] per vehicle and one [`PlanScore`]
//! per `(order, vehicle)` pair — and maintains it *incrementally* as
//! decisions are committed: accepting an order rescores only the chosen
//! vehicle's entries for the still-undecided orders (a per-order plan
//! delta), so a batch of `B` orders over `K` vehicles costs one full
//! `B x K` scoring sweep plus at most `B` single-vehicle rescorings,
//! instead of `B` full sweeps. Under sharding both the sweep and the
//! deltas skip the cells the exact bound rules out, and the matrix never
//! stores them: a delta costs what it evaluates.
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
//! They read an order's row when they decide it — densely and materialised
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
use crate::state::VehicleState;
use crate::sweep::{plan_sweep, ShardContext, ShardStats, SweepBuffers};
use dpdp_net::{FleetConfig, Order, OrderId, RoadNetwork, TimePoint, VehicleId};
use dpdp_pool::ThreadPool;
use dpdp_routing::{PlanScore, PlannerOutput, RoutePlanner, ScheduleCache, VehicleView};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::Arc;

/// Why a [`Decision`] turned out the way it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecisionReason {
    /// The order was assigned to a feasible vehicle.
    Assigned,
    /// No vehicle had a feasible insertion for the order.
    NoFeasibleVehicle,
    /// Feasible vehicles existed but the policy declined them all.
    PolicyRejected,
    /// The policy chose a vehicle whose plan was infeasible at commit time.
    InfeasibleChoice,
    /// The order's decision epoch fell beyond the simulation horizon.
    HorizonExceeded,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// Reusable per-epoch scratch arena for [`DecisionBatch::new`].
///
/// The driver loops (simulator episodes, server engine sessions) build one
/// `DecisionBatch` per decision epoch; without an arena every epoch pays
/// a fresh round of allocations for the sweep classification buffers and
/// one `ScheduleCache` per vehicle. An `EpochScratch` owned by the loop
/// and threaded into `new` keeps all of that storage alive across epochs:
/// buffers are cleared, never freed, so steady-state epochs allocate only
/// when the fleet or epoch outgrows every previous one.
///
/// Reuse is invisible in the output: cache rebuilds run the identical
/// passes over cleared vectors (see `ScheduleCache::rebuild`), the sweep
/// buffers are overwritten before use, and the per-vehicle rebuild fan-out
/// writes disjoint slots whose values do not depend on scheduling — so a
/// dirty scratch produces bit-identical plans to a fresh one at any
/// thread count (`dirty_epoch_scratch_is_bit_identical_to_fresh` below).
#[derive(Debug, Default)]
pub(crate) struct EpochScratch {
    /// Sharded-sweep classification buffers (see [`SweepBuffers`]).
    pub(crate) sweep: SweepBuffers,
    /// One schedule cache slot per vehicle, rebuilt in place each epoch.
    caches: Vec<ScheduleCache>,
    /// `cache_live[k]`: whether `caches[k]` was rebuilt for this epoch.
    /// Dead slots keep stale storage for later epochs but are never read.
    cache_live: Vec<bool>,
    /// Sharded path only: vehicles with at least one surviving sweep cell.
    needed: Vec<bool>,
}

impl EpochScratch {
    /// Rebuilds the per-vehicle schedule caches in place for every vehicle
    /// `want` selects, fanning the builds out across `pool` in fixed
    /// chunks. Each task owns a disjoint `chunks_mut` slice and every
    /// cache's content depends only on its own vehicle view, so the result
    /// is independent of task scheduling — bit-identical at any thread
    /// count, dirty or fresh.
    fn rebuild_caches(
        &mut self,
        planner: &RoutePlanner<'_>,
        views: &[VehicleView],
        pool: &ThreadPool,
        want: impl Fn(usize) -> bool + Sync,
    ) {
        let k_n = views.len();
        self.caches.resize_with(k_n, ScheduleCache::default);
        self.cache_live.clear();
        self.cache_live.resize(k_n, false);
        for (k, live) in self.cache_live.iter_mut().enumerate() {
            *live = want(k);
        }
        let live = &self.cache_live;
        if !pool.is_parallel() || k_n == 0 {
            for (k, cache) in self.caches.iter_mut().enumerate() {
                if live[k] {
                    planner.cache_into(cache, &views[k]);
                }
            }
            return;
        }
        let chunk = k_n.div_ceil((pool.threads() * 4).min(k_n));
        pool.scope(|scope| {
            for (c, caches) in self.caches.chunks_mut(chunk).enumerate() {
                let start = c * chunk;
                scope.spawn(move || {
                    for (off, cache) in caches.iter_mut().enumerate() {
                        let k = start + off;
                        if live[k] {
                            planner.cache_into(cache, &views[k]);
                        }
                    }
                });
            }
        });
    }

    /// The cache rebuilt for vehicle `k` this epoch, if any.
    #[inline]
    fn cache(&self, k: usize) -> Option<&ScheduleCache> {
        self.cache_live[k].then(|| &self.caches[k])
    }
}

/// The epoch's `B x K` plan matrix: candidate rows over a per-vehicle
/// fallback. A cell is a [`PlanScore`] — scalars and insertion positions,
/// `Copy`, no heap — so the store owns no route and dropping it frees
/// only its row vectors.
///
/// A row stores the cells some sweep evaluated, sorted by vehicle index;
/// every absent cell reads as `fallback[k]`, the vehicle's pruned score
/// (`best: None` plus its `d_{t,k}`) — identical for every row. The flat
/// scan evaluates every cell, so its rows are complete and the fallback
/// is never read. The sharded sweep stores only the survivors of the
/// geometric bound, which is what lets the hierarchical megacity episode
/// scale with the *work* of the epoch instead of `O(B x K)` memory
/// traffic on cells whose content is known in advance. Either way every
/// cell query of a still-undecided row answers with bit-identical values.
///
/// Pruned cells stay implicit through commits too: an acceptance on
/// vehicle `k` refreshes `fallback[k]` once and touches a row only where
/// the column replan evaluated a cell or a stored cell went stale, so a
/// row grows by at most one entry per *evaluated* delta cell. A cell that
/// was ever evaluated stays stored (overwritten with the fallback if a
/// later commit prunes it), so a feasible cell is always present.
#[derive(Debug)]
struct PlanStore {
    /// `rows[i]`: the stored `(vehicle, score)` cells of epoch order `i`.
    rows: Vec<Vec<(u32, PlanScore)>>,
    /// `fallback[k]`: what a cell of vehicle `k` no row stores reads as.
    fallback: Vec<PlanScore>,
}

impl PlanStore {
    /// The score of cell `(i, k)`; `None` for a vehicle outside the fleet.
    fn cell(&self, i: usize, k: usize) -> Option<PlanScore> {
        let row = &self.rows[i];
        match row.binary_search_by_key(&(k as u32), |e| e.0) {
            Ok(p) => Some(row[p].1),
            Err(_) => self.fallback.get(k).copied(),
        }
    }

    /// Applies one commit-delta cell: `Some` is the freshly evaluated score
    /// of `(i, k)`, `None` means the bound pruned it, i.e. the cell now
    /// reads as `fallback[k]` (which the caller refreshed first). A pruned
    /// cell overwrites a stored one but is never inserted.
    fn apply_delta(&mut self, i: usize, k: usize, score: Option<PlanScore>) {
        let row = &mut self.rows[i];
        match (row.binary_search_by_key(&(k as u32), |e| e.0), score) {
            (Ok(p), Some(score)) => row[p].1 = score,
            (Ok(p), None) => row[p].1 = self.fallback[k],
            (Err(p), Some(score)) => row.insert(p, (k as u32, score)),
            (Err(_), None) => {}
        }
    }

    /// Whether any vehicle currently has a feasible plan for row `i`.
    /// Fallback cells are `best: None` by construction, so scanning the
    /// stored cells is exhaustive.
    fn row_feasible(&self, i: usize) -> bool {
        self.rows[i].iter().any(|(_, p)| p.feasible())
    }

    /// Row `i` materialised as the dense `K`-slice [`DispatchContext`]
    /// exposes: every feasible cell's route and schedule are built against
    /// its vehicle's current view, so the row must be an undecided one
    /// (see [`DecisionBatch::with_context`]).
    fn row_materialised(
        &self,
        i: usize,
        planner: &RoutePlanner<'_>,
        views: &[VehicleView],
        order: &Order,
    ) -> Vec<PlannerOutput> {
        let mut stored = self.rows[i].iter().peekable();
        let cells = self.fallback.iter().enumerate().map(|(k, fallback)| {
            let score = match stored.next_if(|e| e.0 as usize == k) {
                Some(e) => &e.1,
                None => fallback,
            };
            planner.materialise(score, &views[k], order)
        });
        cells.collect()
    }
}

/// Interior state of a batch: evolves as decisions are committed.
#[derive(Debug)]
struct BatchInner {
    /// The episode's vehicle states, owned by the batch for the length of
    /// the epoch: a committed acceptance is applied here and nowhere else
    /// ([`DecisionBatch::into_parts`] hands them back).
    states: Vec<VehicleState>,
    /// `states[k].view` clones, dense by vehicle, kept in sync on commit
    /// (the contiguous slice [`DispatchContext`] wants).
    views: Vec<VehicleView>,
    /// The epoch's plan matrix (complete rows for the flat scan,
    /// candidate-sparse under sharding).
    plans: PlanStore,
    /// Which epoch orders have been resolved already.
    decided: Vec<bool>,
    /// Per-order commit records, filled by `resolve`.
    commits: Vec<Option<CommitRecord>>,
    /// Sharded-sweep work accounting (initial matrix plus commit deltas);
    /// zero cells when the batch runs unsharded.
    stats: ShardStats,
    /// Commit scratch: the still-undecided rows of the current acceptance.
    undecided: Vec<usize>,
    /// Commit scratch: the accepting vehicle's schedule cache, rebuilt in
    /// place per acceptance.
    column_cache: ScheduleCache,
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
/// Under [`SimulatorBuilder::sharding`] the batch is assembled as a
/// *merge of shard-local batches*: in-shard `(order, vehicle)` pairs run
/// the full insertion sweep as shard-grouped pool tasks, cross-shard pairs
/// go through the deterministic escalation/prune rule of [`crate::sweep`],
/// and the resulting plan matrix is **bit-identical** to the unsharded
/// one — policies cannot tell the difference, only wall time moves.
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
    shards: Option<ShardContext>,
    /// Per-vehicle availability mask (`None` = every vehicle available).
    /// Masked vehicles — e.g. broken down mid-episode — keep their dense
    /// slot in the snapshot but are excluded from the insertion sweep:
    /// their plans arrive as `best: None`, so no policy can choose them.
    active: Option<Vec<bool>>,
    inner: RefCell<BatchInner>,
}

impl<'a> DecisionBatch<'a> {
    /// Builds a batch over the given epoch orders, taking the episode's
    /// vehicle states by move (there is no second copy of the fleet;
    /// [`DecisionBatch::into_parts`] returns them). The initial
    /// `B x K` Algorithm 2 sweep is scored across `pool`'s threads, each
    /// `(order, vehicle)` score landing in its pre-indexed matrix slot —
    /// bit-identical to the serial sweep for any thread count. No route is
    /// built here.
    ///
    /// Each vehicle's [`ScheduleCache`] — prefix/suffix schedule passes and
    /// the current route length `d_{t,k}` — is built **once** here and
    /// shared by every order of the batch, instead of being recomputed per
    /// `(order, vehicle)` cell: the sweep costs `K` cache builds plus
    /// `B x K` O(n²) incremental evaluations.
    #[allow(clippy::too_many_arguments)] // crate-private; mirrors the fields
    pub(crate) fn new(
        now: TimePoint,
        interval: usize,
        net: &'a RoadNetwork,
        fleet: &'a FleetConfig,
        orders: &'a [Order],
        epoch_orders: Vec<OrderId>,
        states: Vec<VehicleState>,
        pool: Arc<ThreadPool>,
        shards: Option<ShardContext>,
        active: Option<Vec<bool>>,
        scratch: &mut EpochScratch,
    ) -> Self {
        let views: Vec<VehicleView> = states.iter().map(|s| s.view.clone()).collect();
        let planner = RoutePlanner::new(net, fleet, orders);
        let epoch = &epoch_orders;
        let views_ref = &views;
        let active_ref = active.as_deref();
        let is_active = |k: usize| active_ref.is_none_or(|a| a[k]);
        let mut stats = ShardStats::default();
        let rows = match shards.as_ref().filter(|c| c.map.num_shards() > 1) {
            None => {
                // Schedule caches only for available vehicles; a masked
                // vehicle's plans are `best: None` with its exact route
                // length, so the mask is value-identical everywhere it
                // is applied (flat or sharded, any thread count). The
                // caches are rebuilt in place inside the epoch scratch
                // arena, not freshly allocated.
                scratch.rebuild_caches(&planner, &views, &pool, is_active);
                let scr = &*scratch;
                let k_n = views.len();
                let mut flat = pool
                    .par_map(epoch.len() * k_n, |idx| {
                        let (i, k) = (idx / k_n, idx % k_n);
                        match scr.cache(k) {
                            Some(cache) => planner.score_cached(
                                cache,
                                &views_ref[k],
                                &orders[epoch[i].index()],
                            ),
                            None => planner.pruned_score(None, &views_ref[k]),
                        }
                    })
                    .into_iter();
                (0..epoch.len())
                    .map(|_| (0..k_n as u32).zip(flat.by_ref()).collect())
                    .collect()
            }
            Some(ctx) => {
                // Sharded sweep: classify every cell, run the surviving
                // cells shard-grouped across the pool, and store them as
                // candidate-sparse rows over the per-vehicle pruned
                // fallback. Every pruned cell's output is bit-identical to
                // what its full evaluation would have produced (see
                // crate::sweep), so queries cannot tell the difference.
                let epoch_refs: Vec<&Order> = epoch.iter().map(|id| &orders[id.index()]).collect();
                let sweep = plan_sweep(
                    ctx,
                    &planner,
                    &views,
                    &epoch_refs,
                    active_ref,
                    &pool,
                    &mut scratch.sweep,
                );
                stats = sweep.stats;
                let work = &sweep.work;
                // Schedule caches are only needed by vehicles with at
                // least one surviving cell — a vehicle whose whole column
                // pruned skips the build entirely (its `d_{t,k}` comes
                // from `Route::length`, which accumulates the same legs in
                // the same order as the cache's forward pass, so the
                // emitted value is bit-identical either way). The `needed`
                // mask is lifted out of the scratch while `rebuild_caches`
                // borrows it mutably, then restored.
                let mut needed = std::mem::take(&mut scratch.needed);
                needed.clear();
                needed.resize(views.len(), false);
                for &(_, k) in work.iter() {
                    needed[k as usize] = true;
                }
                scratch.rebuild_caches(&planner, &views, &pool, |k| needed[k]);
                scratch.needed = needed;
                let scr = &*scratch;
                let outs = pool.par_map(work.len(), |w| {
                    let (i, k) = (work[w].0 as usize, work[w].1 as usize);
                    let cache = scr
                        .cache(k)
                        .expect("every work cell's vehicle is in `needed`");
                    planner.score_cached(cache, &views_ref[k], epoch_refs[i])
                });
                // `work` is vehicle-shard-major, so a row's cells arrive
                // scattered: count them first and size every row exactly.
                let mut row_len = vec![0usize; epoch_refs.len()];
                for &(i, _) in work.iter() {
                    row_len[i as usize] += 1;
                }
                let mut rows: Vec<Vec<(u32, PlanScore)>> =
                    row_len.into_iter().map(Vec::with_capacity).collect();
                for (&(i, k), out) in work.iter().zip(outs) {
                    rows[i as usize].push((k, out));
                }
                for row in &mut rows {
                    row.sort_unstable_by_key(|e| e.0);
                }
                rows
            }
        };
        // A pruned cell's score depends only on the vehicle (`best: None`
        // plus its `d_{t,k}`), so it is computed once per vehicle instead
        // of materialising a `B x K` canvas.
        let fallback = (0..views.len())
            .map(|k| planner.pruned_score(scratch.cache(k), &views[k]))
            .collect();
        let plans = PlanStore { rows, fallback };
        let decided = vec![false; epoch_orders.len()];
        let commits = (0..epoch_orders.len()).map(|_| None).collect();
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
                states,
                views,
                plans,
                decided,
                commits,
                stats,
                undecided: Vec::new(),
                column_cache: ScheduleCache::default(),
            }),
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
    /// snapshot, in ascending vehicle order — the one read primitive
    /// batch-native policies pick a vehicle with, called at decision time so
    /// there is no policy-side copy of the matrix to keep in sync. A cell is
    /// a [`PlanScore`]: the scalars an argmin ranks on. Nothing is
    /// materialised here; the route of the cell the policy picks is built
    /// once, by [`DecisionBatch::resolve`].
    ///
    /// On a flat (unsharded) batch the row holds all `K` vehicles. Under
    /// sharding it holds the cells the initial sweep or a later commit
    /// delta actually evaluated; every vehicle it omits is provably
    /// infeasible for this order (`best: None`), so an argmin over feasible
    /// plans sees the same winner and the same tie-breaks as a dense scan.
    /// A row changes only when [`DecisionBatch::resolve`] commits an
    /// acceptance: the accepting vehicle's cell is rescored for every
    /// still-undecided order. The row of an already resolved order is not
    /// maintained — folding over it is allowed and reads scores that may
    /// be stale.
    ///
    /// # Panics
    /// Panics if `i >= len()`, or when called while the snapshot is mutably
    /// borrowed (inside [`DecisionBatch::resolve`]).
    pub fn fold_candidates<A>(
        &self,
        i: usize,
        init: A,
        mut f: impl FnMut(A, VehicleId, &PlanScore) -> A,
    ) -> A {
        self.inner.borrow().plans.rows[i]
            .iter()
            .fold(init, |acc, (k, p)| {
                f(acc, VehicleId::from_index(*k as usize), p)
            })
    }

    /// The decision [`DecisionBatch::resolve`] committed for the `i`-th
    /// order, or `None` while it is unresolved.
    pub(crate) fn committed(&self, i: usize) -> Option<Decision> {
        self.inner.borrow().commits[i].as_ref().map(|c| c.decision)
    }

    /// Tears the batch down into its per-order commit records (`None` for
    /// an order nobody resolved) and the vehicle states it was built from,
    /// every committed acceptance applied.
    pub(crate) fn into_parts(self) -> (Vec<Option<CommitRecord>>, Vec<VehicleState>) {
        let inner = self.inner.into_inner();
        (inner.commits, inner.states)
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

    /// Number of geographic shards the epoch was scored with (1 when
    /// sharding is off).
    pub fn num_shards(&self) -> usize {
        self.shards.as_ref().map_or(1, |ctx| ctx.map.num_shards())
    }

    /// Work accounting of the sharded sweep so far: the initial `B x K`
    /// matrix plus every commit delta already applied. All counters are
    /// zero when the batch runs unsharded. The counters describe *work*
    /// saved by the partition — decisions are bit-identical regardless.
    pub fn shard_stats(&self) -> ShardStats {
        self.inner.borrow().stats
    }

    /// The shard owning the `i`-th order (its pickup node's region), or 0
    /// when sharding is off.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn shard_of_order(&self, i: usize) -> usize {
        self.shards
            .as_ref()
            .map_or(0, |ctx| ctx.map.shard_of(self.order(i).pickup))
    }

    /// The shard a vehicle currently belongs to (its anchor node's region,
    /// which moves as commits advance the vehicle), or 0 when sharding is
    /// off.
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn shard_of_vehicle(&self, k: VehicleId) -> usize {
        self.shards.as_ref().map_or(0, |ctx| {
            ctx.map
                .shard_of(self.inner.borrow().views[k.index()].anchor_node)
        })
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
    /// the sequential commit order. The context's `plans` are materialised
    /// for this call — one route and schedule per feasible vehicle, built
    /// from the row's scores against the current views — and dropped when
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
            !inner.decided[i],
            "order {} already resolved: its row is no longer maintained",
            self.epoch_orders[i]
        );
        let planner = RoutePlanner::new(self.net, self.fleet, self.orders);
        let order = self.order(i);
        let row = inner
            .plans
            .row_materialised(i, &planner, &inner.views, order);
        let ctx = DispatchContext {
            order,
            now: self.now,
            interval: self.interval,
            views: &inner.views,
            plans: &row,
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
        let mut inner = self.inner.borrow_mut();
        assert!(
            !inner.decided[i],
            "order {} resolved twice in one batch",
            self.epoch_orders[i]
        );
        inner.decided[i] = true;
        let oid = self.epoch_orders[i];
        let (decision, assignment) = Self::commit(&mut inner, self, i, oid, choice);
        inner.commits[i] = Some(CommitRecord {
            decision,
            assignment,
        });
        decision
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
            states,
            views,
            plans,
            decided,
            stats,
            undecided,
            column_cache,
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
        let state = &mut states[k.index()];
        let plan = planner.materialise(&score, &state.view, &batch.orders[oid.index()]);
        let best = plan.best.as_ref().expect("a feasible score materialises");
        // Accept the route, then advance through legs that depart at the
        // epoch instant, so later orders in the batch see the post-commit
        // anchor (no-interference rule).
        let pre_view = state.view.clone();
        let vehicle_was_used = state.used();
        state.accept(best.candidate.route.clone());
        state.advance_to(batch.now, batch.net, batch.fleet, batch.orders);
        views[k.index()] = state.view.clone();
        // The plan delta: only the accepting vehicle's column changes, and
        // only for the still-undecided orders — replanned in parallel, each
        // result landing back in its own row, all sharing one schedule
        // cache rebuilt for the vehicle's new route. Under sharding the
        // column gets the same exact prune as the initial sweep (foreign
        // orders the bound rules out skip the sweep; no m-nearest
        // escalation here — a single column has no ranking to run), which
        // is bit-identical to replanning every cell. A pruned cell's value
        // is the vehicle's new fallback, written once below, so a pruned
        // delta cell costs its bound check and nothing else.
        undecided.clear();
        undecided.extend((0..decided.len()).filter(|&j| !decided[j]));
        let view = &views[k.index()];
        planner.cache_into(column_cache, view);
        let cache = &*column_cache;
        let shard_ctx = batch.shards.as_ref().filter(|c| c.map.num_shards() > 1);
        let vehicle_shard = shard_ctx.map(|c| c.map.shard_of(view.anchor_node));
        plans.fallback[k.index()] = planner.pruned_score(Some(cache), view);
        let (orders, epoch) = (batch.orders, &batch.epoch_orders);
        // `(score, foreign)` of delta cell `(j, k)`; `None` = pruned.
        let replan = |j: usize| {
            let order = &orders[epoch[j].index()];
            let foreign = match (shard_ctx, vehicle_shard) {
                (Some(ctx), Some(vs)) => ctx.map.shard_of(order.pickup) != vs,
                _ => false,
            };
            if foreign && planner.provably_infeasible(view, order) {
                return (None, foreign);
            }
            (Some(planner.score_cached(cache, view, order)), foreign)
        };
        let mut record = |j: usize, (score, foreign): (Option<PlanScore>, bool)| {
            if shard_ctx.is_some() {
                stats.cells += 1;
                match score {
                    None => stats.pruned += 1,
                    Some(_) => {
                        stats.evaluated += 1;
                        stats.escalated += usize::from(foreign);
                    }
                }
            }
            plans.apply_delta(j, k.index(), score);
        };
        // Columns are usually short next to the pool's wake/join latency;
        // replan them inline below this size (the values are identical
        // either way — `par_map` already matches the serial order).
        const PAR_COLUMN_MIN: usize = 256;
        if undecided.len() < PAR_COLUMN_MIN {
            for &j in undecided.iter() {
                record(j, replan(j));
            }
        } else {
            let fresh = batch
                .pool
                .par_map(undecided.len(), |u| replan(undecided[u]));
            for (&j, cell) in undecided.iter().zip(fresh) {
                record(j, cell);
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
