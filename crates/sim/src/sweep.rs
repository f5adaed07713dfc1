//! Region sharding of decision epochs: partition → score → merge.
//!
//! A monolithic decision epoch scores every epoch order against every
//! vehicle — `B x K` full Algorithm 2 sweeps — even though most pairs are
//! geographically hopeless at industry scale. With
//! [`SimulatorBuilder::sharding`] the epoch becomes a **merge of
//! cell-local batches** instead:
//!
//! 1. **Partition** — a [`ShardMap`] assigns every vehicle to the cell of
//!    its current anchor node and every epoch order to the cell of its
//!    pickup node. Flat configs ([`ShardConfig::flat`]) have one level of
//!    cells; hierarchical configs ([`ShardConfig::hierarchical`]) nest
//!    fine cells under coarse metro regions (two levels). The initial map
//!    is built once per simulator from node geometry; a
//!    [`RepartitionPolicy`](crate::sharding::RepartitionPolicy) lets each
//!    episode re-seed its own copy from accumulated demand at flush
//!    boundaries (see [`crate::sharding`]).
//! 2. **Score** — in-cell `(order, vehicle)` pairs get the full insertion
//!    sweep, grouped vehicle-shard-major into `dpdp-pool` tasks so each
//!    cell's sweep runs concurrently against its own schedule caches.
//!    Interchangeable idle vehicles (*idle twins*, see [`crate::batch`])
//!    are one column of the plan matrix, and classification works per
//!    column: a group shares anchor node and anchor time, so the bound
//!    answers once for all its members, and the group is evaluated — one
//!    cell per order — if it is in-shard, if the bound keeps it, or if
//!    escalation (below) picked any of its members. [`ShardStats`] still
//!    counts `(order, vehicle)` pairs: a group cell counts each member it
//!    is evaluated for.
//! 3. **Merge** — cross-cell pairs go through the deterministic
//!    escalation rule: the `m` nearest foreign vehicles **in the order's
//!    parent region** (ranked by anchor→pickup distance under
//!    [`f64::total_cmp`], ties first-wins toward the lower vehicle id)
//!    are always evaluated in full, and every remaining foreign pair is
//!    evaluated **unless** the exact geometric bound
//!    ([`RoutePlanner::provably_infeasible`]) proves that no insertion
//!    can meet the order's deadline, in which case the pair's known
//!    output (`best: None`, exact `d_{t,k}`) is emitted without the
//!    sweep. Under a flat map the whole fleet is one region, so the rule
//!    degenerates to the classic `m`-nearest-foreign escalation;
//!    hierarchically, cross-**region** pairs never consume escalation
//!    slots — they rely on the exact bound alone, which is what makes the
//!    sweep scale with cell size instead of fleet size.
//!
//!    **The block bound.** Cross-region pairs come in blocks: a vehicle
//!    cell against an order cell of another region. The epoch's orders
//!    are bucketed by cell, each cell with one merged prune probe — the
//!    weakest of its orders' ([`PruneProbe::merge`]) — and the map holds a
//!    lower bound on the distance between any two nodes of two cells
//!    ([`ShardMap::gap_km`]). A block whose merged probe prunes at the
//!    vehicle cell's earliest anchor time and the travel time of the gap
//!    is dismissed with that one check: by the merge lemma every order of
//!    the block prunes for every vehicle of the cell at its own anchor
//!    time and its own, longer, anchor→pickup leg, and no order of another
//!    region escalates into the cell. So the block bound dismisses a
//!    *subset* of the pairs the per-pair bound prunes — never a pair it
//!    would keep — and a dismissed block costs no distance lookup either.
//!    A same-region block keeps the per-order path, because escalation
//!    may pick its vehicles.
//!
//! **One cell is the degenerate partition.** An unsharded epoch
//! ([`ShardConfig::default`], `flat(1)`) runs this same pipeline over a
//! one-cell map: no pair is foreign, so classification keeps every active
//! column for every order and `plan_sweep` returns that list at once,
//! without the distance memo, the escalation ranking or the cell
//! aggregates. Scoring, storage and commit deltas do not know the cell
//! count, and [`ShardStats`] describes every epoch: a one-cell epoch
//! prunes only its masked vehicles and escalates nothing.
//!
//! **Determinism guarantee.** A pruned pair's output is *bit-identical* to
//! what the full sweep would have produced (the bound is conservative and
//! gated on metric networks), every evaluated cell lands in a pre-indexed
//! slot of the plan matrix, and the classification itself never reads
//! results — so episodes are bit-identical for **any** shard layout, any
//! escalation width, any re-partition cadence and any thread count.
//! `tests/batch_parity.rs` and `tests/repartition.rs` assert this
//! end-to-end for every built-in policy; only wall time moves.
//!
//! [`SimulatorBuilder::sharding`]: crate::simulator::SimulatorBuilder::sharding
//! [`ShardConfig::flat`]: crate::sharding::ShardConfig::flat
//! [`ShardConfig::default`]: crate::sharding::ShardConfig::default
//! [`ShardConfig::hierarchical`]: crate::sharding::ShardConfig::hierarchical
//! [`RoutePlanner::provably_infeasible`]: dpdp_routing::RoutePlanner::provably_infeasible
//! [`PruneProbe::merge`]: dpdp_routing::PruneProbe::merge
//! [`ShardMap::gap_km`]: dpdp_net::ShardMap::gap_km

use crate::batch::ColumnMap;
use dpdp_net::{NodeId, OrderId, ShardMap, TimeDelta, TimePoint};
use dpdp_pool::ThreadPool;
use dpdp_routing::{PruneProbe, RoutePlanner, VehicleView};
use std::sync::Arc;

/// Sharding parameters a [`Simulator`](crate::simulator::Simulator) hands
/// to every [`DecisionBatch`](crate::batch::DecisionBatch).
#[derive(Debug, Clone)]
pub(crate) struct ShardContext {
    /// The node → region partition (built once per simulator).
    pub(crate) map: Arc<ShardMap>,
    /// Escalation width `m`: the number of nearest foreign vehicles per
    /// order that are always evaluated in full.
    pub(crate) escalation: usize,
}

/// Work accounting of one epoch's sweep under its shard layout, one cell
/// included (initial `B x K` matrix plus any per-commit column deltas),
/// surfaced through
/// [`EpochInfo`](crate::observer::EpochInfo) and
/// [`DecisionBatch::shard_stats`](crate::batch::DecisionBatch::shard_stats).
///
/// These counters describe *work*, not outcomes: they vary with the shard
/// count and escalation width while the episode's decisions do not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Total `(order, vehicle)` cells considered.
    pub cells: usize,
    /// Cells classified for evaluation: every cell that is neither pruned
    /// nor masked, i.e. whose score is a real Algorithm 2 result. Most ran
    /// the insertion sweep themselves; [`ShardStats::shared`] of them are
    /// members of an idle-twin group whose one cell was scored instead.
    pub evaluated: usize,
    /// Cells that ran no evaluation: cross-shard cells skipped through the
    /// exact infeasibility bound, and every cell of a masked vehicle.
    pub pruned: usize,
    /// Cross-shard cells evaluated in full (m-nearest escalation, or the
    /// bound could not rule them out).
    pub escalated: usize,
    /// Evaluated cells of the initial sweep that ran no sweep of their own
    /// because an *idle twin* — another parked vehicle with the same anchor
    /// node, anchor time and depot, which Algorithm 2 cannot tell apart
    /// (see [`crate::batch`]) — shares their group's one cell: the
    /// evaluated `(order, vehicle)` pairs minus the `(order, column)` cells
    /// scored and stored. A subset of `evaluated`; commit deltas rescore
    /// one vehicle and never share.
    pub shared: usize,
    /// Schedule caches built: one per column of the initial sweep whose
    /// lowest member's view changed since its slot was last built — a
    /// slot is kept across epochs, so a vehicle still driving the leg it
    /// was driving at its last build is scored on the cache it has (see
    /// [`crate::batch`]) — plus one per acceptance, for the accepting
    /// vehicle's new route. Like `shared`, it counts work saved by
    /// reuse: the scores are the same either way.
    pub caches_built: usize,
}

/// Reusable classification buffers for [`plan_sweep`] — part of the
/// per-episode [`EpochScratch`](crate::batch::EpochScratch) arena. Every
/// vector is cleared (capacity retained, never freed) at the start of each
/// call, so these tables are not reallocated from epoch to epoch. The
/// per-cell pass still allocates on every call: each vehicle cell's task
/// builds its own `work` and `live` lists, and the pool's `par_map`
/// allocates the vector of their results before `work` copies them in.
///
/// The one cross-call invariant is `node_slot`: a dense node → anchor-slot
/// table sized to the network, all entries `u32::MAX` between calls.
/// [`plan_sweep`] resets only the entries it touched (via the `anchors`
/// list) on exit, so the reset is O(distinct anchors), not O(nodes).
#[derive(Debug, Default)]
pub(crate) struct SweepBuffers {
    /// Shard of each vehicle's anchor node.
    vehicle_shard: Vec<u32>,
    /// Shard of each epoch order's pickup node. Read back by the batch,
    /// whose commit deltas classify against the same partition.
    pub(crate) order_shard: Vec<u32>,
    /// Vehicle indices grouped shard-major (counting sort output).
    vehicles_by_shard: Vec<u32>,
    /// Counting-sort bucket offsets (`num_shards + 1` entries).
    buckets: Vec<u32>,
    /// Counting-sort write cursors.
    cursor: Vec<u32>,
    /// End offset of each region's run in `vehicles_by_shard`.
    region_end: Vec<usize>,
    /// Dense node → anchor-slot table; all `u32::MAX` between calls.
    node_slot: Vec<u32>,
    /// Distinct anchor nodes of this epoch, in first-seen vehicle order.
    anchors: Vec<NodeId>,
    /// Anchor slot of each vehicle.
    vehicle_slot: Vec<u32>,
    /// End of each region's run of `order_cells.orders` (`num_regions + 1`
    /// entries, like `region_end`).
    region_orders: Vec<usize>,
    /// `block[s * S + u]`: the offset of order cell `u`'s run in vehicle
    /// cell `s`'s row layout, `u32::MAX` for a block the bound dismissed.
    block: Vec<u32>,
    /// Length of each vehicle cell's row layout.
    row_len: Vec<usize>,
    /// The foreign-region order cells each vehicle cell's layout kept,
    /// cell after cell; `kept_end[s]` ends cell `s`'s list.
    kept: Vec<u32>,
    /// End of each vehicle cell's list in `kept`.
    kept_end: Vec<usize>,
    /// Pickup node of each epoch order, in `order_cells.orders` order (the
    /// batched-kernel target list).
    pickups: Vec<NodeId>,
    /// Start of each anchor slot's row in the memo.
    row_start: Vec<usize>,
    /// Anchor-major distance memo over the row layouts:
    /// `dist[row_start[slot] + col]` = anchor→pickup km.
    dist: Vec<f64>,
    /// Travel times of `dist`, same layout.
    leg: Vec<TimeDelta>,
    /// Per-order prune probes (factored deadline bound). Read back by the
    /// batch: a commit delta runs the same bound on the same orders.
    pub(crate) probes: Vec<PruneProbe>,
    /// The order-side index: the epoch's orders by cell, and each cell's
    /// merged probe. Lent to the batch, whose commit deltas dismiss whole
    /// order cells with it.
    pub(crate) order_cells: OrderCells,
    /// Escalation marks: `esc[i * m ..]` = order `i`'s escalated vehicles.
    esc: Vec<u32>,
    /// Running top-m selection buffer for the escalation ranking.
    topm: Vec<(f64, u32)>,
    /// Earliest active anchor time per cell.
    cell_min_time: Vec<Option<TimePoint>>,
    /// Distinct anchor slots per cell.
    slots_by_cell: Vec<Vec<u32>>,
    /// Slot-dedup mask for `slots_by_cell`.
    slot_listed: Vec<bool>,
    /// The classified sweep: the `(order_index, column)` cells to evaluate
    /// in full, one per order and column of the epoch's [`ColumnMap`],
    /// grouped vehicle-shard-major (all of one region's columns are
    /// contiguous, so pool chunks mostly stay inside one shard's caches)
    /// and, inside a shard, column-major: each column's cells are one
    /// contiguous run in ascending order index. The batch takes the list as
    /// its column index (which rows store a cell of column `c`) and hands
    /// its storage back after the epoch, so this layout is a contract, not
    /// an accident of the loop in [`plan_sweep`].
    pub(crate) work: Vec<(u32, u32)>,
}

/// The epoch's orders bucketed by the cell of their pickup node, ascending
/// inside each cell, with one merged [`PruneProbe`] per cell: the weakest
/// of its orders' probes ([`PruneProbe::merge`]). A merged probe that
/// prunes at a lower bound on a vehicle cell's anchor times and at the
/// travel time of [`ShardMap::gap_km`] prunes every pair of the block —
/// the block bound of [`plan_sweep`] and of the batch's commit deltas.
#[derive(Debug, Default)]
pub(crate) struct OrderCells {
    /// Cell `u`'s orders are `orders[start[u]..start[u + 1]]`.
    start: Vec<u32>,
    /// Epoch order indices, cell after cell.
    pub(crate) orders: Vec<u32>,
    /// Per cell, its orders' merged probe; `None` for a cell without one.
    probe: Vec<Option<PruneProbe>>,
    /// The cells that have an order, ascending.
    occupied: Vec<u32>,
}

impl OrderCells {
    /// Buckets the epoch's orders by `order_shard` (a counting sort, so
    /// each cell's run stays ascending) and merges each cell's probes.
    fn index(&mut self, order_shard: &[u32], probes: &[PruneProbe], num_shards: usize) {
        self.start.clear();
        self.start.resize(num_shards + 1, 0);
        self.probe.clear();
        self.probe.resize(num_shards, None);
        for (&u, &p) in order_shard.iter().zip(probes) {
            self.start[u as usize + 1] += 1;
            let merged = &mut self.probe[u as usize];
            *merged = Some(merged.map_or(p, |m| m.merge(p)));
        }
        for u in 0..num_shards {
            self.start[u + 1] += self.start[u];
        }
        self.orders.clear();
        self.orders.resize(order_shard.len(), 0);
        // `start[u]` is cell `u`'s write cursor, which ends on `start[u +
        // 1]`; shifting the table one up restores the starts.
        for (i, &u) in order_shard.iter().enumerate() {
            self.orders[self.start[u as usize] as usize] = i as u32;
            self.start[u as usize] += 1;
        }
        self.start.copy_within(..num_shards, 1);
        self.start[0] = 0;
        self.occupied.clear();
        let has_orders = |u: &u32| self.probe[*u as usize].is_some();
        self.occupied
            .extend((0..num_shards as u32).filter(has_orders));
    }

    /// The `(start, end)` run of cell `u` in [`OrderCells::orders`].
    #[inline]
    pub(crate) fn run(&self, u: usize) -> (usize, usize) {
        (self.start[u] as usize, self.start[u + 1] as usize)
    }

    /// The cells that have an order, ascending.
    #[inline]
    pub(crate) fn occupied(&self) -> &[u32] {
        &self.occupied
    }

    /// Whether the block of vehicle cell `v`'s pairs with order cell `u`
    /// is provably infeasible for vehicles anchored at `anchor_time` or
    /// later: `u`'s merged probe prunes at that time and at the travel
    /// time of the cells' [`ShardMap::gap_km`]. By [`PruneProbe::merge`]'s
    /// lemma every order of `u` then prunes for every such vehicle, whose
    /// anchor→pickup distance is at least the gap.
    #[inline]
    pub(crate) fn dismissed(
        &self,
        map: &ShardMap,
        planner: &RoutePlanner<'_>,
        v: usize,
        u: usize,
        anchor_time: TimePoint,
    ) -> bool {
        self.probe[u].is_none_or(|p| p.prunes(anchor_time, planner.travel_time(map.gap_km(v, u))))
    }
}

/// Classifies every `(order, vehicle)` cell of an epoch, column by column
/// of `columns`, the epoch's idle-twin grouping: a group is decided once
/// for all its members (they share anchor node and anchor time, all the
/// bound reads), and the work list names columns.
///
/// Runs serially before the parallel sweep (distance lookups only, no
/// planning); the result depends solely on the epoch snapshot and the
/// shard configuration, never on thread scheduling.
///
/// `active` is the engine's vehicle-availability mask (`None` = all
/// available): cells of a masked vehicle — broken down mid-episode — never
/// survive classification (counted as pruned), and masked vehicles are
/// skipped by the escalation ranking so an order never "escalates" to a
/// dead truck.
///
/// The epoch's orders are `epoch` ids into the planner's order table.
/// Returns the work accounting of the whole matrix; the cells to evaluate
/// land in [`SweepBuffers::work`].
#[allow(clippy::too_many_arguments)] // one caller, the batch build
pub(crate) fn plan_sweep(
    ctx: &ShardContext,
    planner: &RoutePlanner<'_>,
    views: &[VehicleView],
    epoch: &[OrderId],
    active: Option<&[bool]>,
    columns: &ColumnMap,
    pool: &ThreadPool,
    scr: &mut SweepBuffers,
) -> ShardStats {
    let map = &*ctx.map;
    let net = planner.network();
    let fleet = planner.fleet();
    let k_n = views.len();
    let b = epoch.len();
    let epoch_orders = || epoch.iter().map(|id| &planner.orders()[id.index()]);
    let is_active = |k: usize| active.is_none_or(|a| a[k]);
    scr.order_shard.clear();
    scr.order_shard
        .extend(epoch_orders().map(|o| map.shard_of(o.pickup) as u32));
    scr.probes.clear();
    scr.probes
        .extend(epoch_orders().map(|o| planner.prune_probe(o)));
    scr.order_cells
        .index(&scr.order_shard, &scr.probes, map.num_shards());
    if map.num_shards() == 1 {
        return one_cell(b, k_n, columns, is_active, &mut scr.work);
    }
    scr.vehicle_shard.clear();
    scr.vehicle_shard
        .extend(views.iter().map(|v| map.shard_of(v.anchor_node) as u32));

    // Vehicle-shard-major work list: regions become contiguous runs of the
    // flat list, so the pool's chunked tasks are (mostly) shard-local.
    // Bucketed counting sort — shard counts are tiny and vehicle order
    // within a shard stays ascending (deterministic).
    let num_shards = map.num_shards();
    scr.buckets.clear();
    scr.buckets.resize(num_shards + 1, 0);
    for &s in &scr.vehicle_shard {
        scr.buckets[s as usize + 1] += 1;
    }
    for s in 0..num_shards {
        scr.buckets[s + 1] += scr.buckets[s];
    }
    scr.vehicles_by_shard.clear();
    scr.vehicles_by_shard.resize(k_n, 0);
    scr.cursor.clear();
    scr.cursor.extend_from_slice(&scr.buckets);
    for (k, &s) in scr.vehicle_shard.iter().enumerate() {
        scr.vehicles_by_shard[scr.cursor[s as usize] as usize] = k as u32;
        scr.cursor[s as usize] += 1;
    }
    // Cell ids are region-major, so each region is one contiguous run of
    // `vehicles_by_shard` — the escalation ranking scans only the order's
    // run instead of the whole fleet.
    let num_regions = map.num_regions();
    scr.region_end.clear();
    scr.region_end.resize(num_regions + 1, 0);
    for s in 0..num_shards {
        scr.region_end[map.region_of(s) + 1] = scr.buckets[s + 1] as usize;
    }
    for g in 0..num_regions {
        scr.region_end[g + 1] = scr.region_end[g + 1].max(scr.region_end[g]);
    }

    // Anchor slots: vehicles cluster on far fewer anchor nodes than there
    // are vehicles (idle trucks share depots), so anchor→pickup legs are
    // looked up once per (order, anchor node) instead of once per cell —
    // on a 10k-vehicle fleet that is the difference between a sweep-bound
    // and a memo-bound classification pass.
    if scr.node_slot.len() < net.nodes().len() {
        scr.node_slot.resize(net.nodes().len(), u32::MAX);
    }
    scr.anchors.clear();
    scr.vehicle_slot.clear();
    for v in views {
        let slot = &mut scr.node_slot[v.anchor_node.index()];
        if *slot == u32::MAX {
            *slot = scr.anchors.len() as u32;
            scr.anchors.push(v.anchor_node);
        }
        scr.vehicle_slot.push(*slot);
    }
    let ns = scr.anchors.len();

    // Cell-level aggregates for the group prune below: the earliest anchor
    // time over each cell's active vehicles, and the cell's distinct
    // anchor slots (an anchor node maps to exactly one cell, so the slot
    // lists partition `anchors`). `prunes` is monotone non-decreasing in
    // both arguments — pushing the anchor time later or the pickup leg
    // longer can only lose more slack — so a cell that prunes at its
    // (min time, min leg) corner prunes every one of its vehicles
    // individually. The group skip therefore dismisses exactly the cells
    // the per-vehicle pass would, without touching their vehicles: the
    // classification drops from `O(B x K)` probe checks to
    // `O(B x (shards + anchors))` plus per-vehicle checks only inside
    // cells the bound could not dismiss wholesale.
    scr.cell_min_time.clear();
    scr.cell_min_time.resize(num_shards, None);
    for cell in scr.slots_by_cell.iter_mut() {
        cell.clear();
    }
    if scr.slots_by_cell.len() < num_shards {
        scr.slots_by_cell.resize_with(num_shards, Vec::new);
    }
    scr.slot_listed.clear();
    scr.slot_listed.resize(ns, false);
    for (ku, view) in views.iter().enumerate() {
        if !is_active(ku) {
            continue;
        }
        let s = scr.vehicle_shard[ku] as usize;
        let t = view.anchor_time;
        if scr.cell_min_time[s].is_none_or(|cur| t < cur) {
            scr.cell_min_time[s] = Some(t);
        }
        let slot = scr.vehicle_slot[ku];
        if !scr.slot_listed[slot as usize] {
            scr.slot_listed[slot as usize] = true;
            scr.slots_by_cell[s].push(slot);
        }
    }

    // The block bound, one check per `(vehicle cell, order cell)` block of
    // a foreign region: its order cell's merged probe at the vehicle
    // cell's earliest anchor time and the travel time of the cells' gap
    // (`OrderCells::dismissed`). Escalation never leaves an order's region,
    // so no order of such a block escalated to the vehicle cell, and every
    // one of its orders would prune at the group corner below: a dismissed
    // block is a subset of what the per-order check dismisses, and it is
    // never looked at again. A same-region block keeps the per-order path
    // — escalation may pick its vehicles. What is left is the *row layout*
    // of vehicle cell `s`: its region's orders (cells are region-major, so
    // a region's orders are one run of `order_cells.orders`), then each
    // foreign cell the bound kept; `block[s * S + u]` is the offset of
    // order cell `u`'s run in that layout (`u32::MAX` = dismissed).
    let order_cells = &scr.order_cells;
    scr.region_orders.clear();
    scr.region_orders.resize(num_regions + 1, 0);
    for s in 0..num_shards {
        scr.region_orders[map.region_of(s) + 1] = order_cells.run(s).1;
    }
    for g in 0..num_regions {
        scr.region_orders[g + 1] = scr.region_orders[g + 1].max(scr.region_orders[g]);
    }
    scr.block.clear();
    scr.block.resize(num_shards * num_shards, u32::MAX);
    scr.row_len.clear();
    scr.kept.clear();
    scr.kept_end.clear();
    for s in 0..num_shards {
        let g = map.region_of(s);
        let (first, last) = (scr.region_orders[g], scr.region_orders[g + 1]);
        let mut len = last - first;
        for &u in order_cells.occupied() {
            let u = u as usize;
            let (start, end) = order_cells.run(u);
            let offset = if map.region_of(u) == g {
                start - first
            } else if scr.cell_min_time[s]
                .is_some_and(|t0| !order_cells.dismissed(map, planner, s, u, t0))
            {
                scr.kept.push(u as u32);
                let offset = len;
                len += end - start;
                offset
            } else {
                continue;
            };
            scr.block[s * num_shards + u] = offset as u32;
        }
        scr.row_len.push(len);
        scr.kept_end.push(scr.kept.len());
    }

    // Distance memo over the row layouts: `dist[row_start[slot] + col]` is
    // the anchor→pickup km of the order at column `col` of its cell's
    // layout — the region's run is one contiguous `distances_from` matrix
    // scan plus one fused `travel_times` conversion, each kept foreign
    // cell one more, entry-for-entry bit-identical to the per-cell scalar
    // lookups it replaces. `dist` feeds the escalation ranking (raw km),
    // `leg` the prune probes (travel time). Dismissed blocks cost nothing
    // here, which on a hierarchical map is most of the `anchors x B` memo.
    scr.pickups.clear();
    let pickup = |&i: &u32| planner.orders()[epoch[i as usize].index()].pickup;
    scr.pickups.extend(order_cells.orders.iter().map(pickup));
    scr.row_start.clear();
    let mut memo_len = 0;
    for &a in &scr.anchors {
        scr.row_start.push(memo_len);
        memo_len += scr.row_len[map.shard_of(a)];
    }
    scr.dist.clear();
    scr.dist.resize(memo_len, 0.0);
    scr.leg.clear();
    scr.leg.resize(memo_len, TimeDelta::ZERO);
    for (slot, &a) in scr.anchors.iter().enumerate() {
        let s = map.shard_of(a);
        let g = map.region_of(s);
        let kept = &scr.kept[s.checked_sub(1).map_or(0, |p| scr.kept_end[p])..scr.kept_end[s]];
        let runs = kept.iter().map(|&u| order_cells.run(u as usize));
        let region = (scr.region_orders[g], scr.region_orders[g + 1]);
        let mut col = scr.row_start[slot];
        for (start, end) in std::iter::once(region).chain(runs) {
            let row = col..col + (end - start);
            net.distances_from(a, &scr.pickups[start..end], &mut scr.dist[row.clone()]);
            fleet.travel_times(&scr.dist[row.clone()], &mut scr.leg[row]);
            col += end - start;
        }
    }
    // Escalation marks: per order, the m nearest foreign vehicles *within
    // the order's parent region* by anchor→pickup distance (total_cmp,
    // ties broken on the lower vehicle id — a total order, so the scan
    // order over the region's run is irrelevant). Flat maps are one
    // region, so the run is the whole fleet there; hierarchical maps never
    // spend escalation slots on cross-region vehicles. `m` is small, so a
    // running top-m scan beats sorting — `esc[i * m ..]` holds order `i`'s
    // escalated vehicle ids. A vehicle of the order's region reads the
    // order's distance in its row's region run.
    let m = ctx.escalation.min(k_n);
    scr.esc.clear();
    scr.esc.resize(b * m, u32::MAX);
    if m > 0 {
        for (pos, &iu) in order_cells.orders.iter().enumerate() {
            let i = iu as usize;
            let u = scr.order_shard[i] as usize;
            let g = map.region_of(u);
            let col = pos - scr.region_orders[g];
            scr.topm.clear();
            let run = &scr.vehicles_by_shard[scr.region_end[g]..scr.region_end[g + 1]];
            for &k in run {
                let ku = k as usize;
                if scr.vehicle_shard[ku] == u as u32 || !is_active(ku) {
                    continue;
                }
                let d = scr.dist[scr.row_start[scr.vehicle_slot[ku] as usize] + col];
                // Insert into the small sorted top-m buffer; strict
                // ordering by (distance, id) keeps ties deterministic.
                let rank = scr
                    .topm
                    .iter()
                    .position(|&(bd, bk)| d.total_cmp(&bd).then(k.cmp(&bk)).is_lt())
                    .unwrap_or(scr.topm.len());
                if rank < m {
                    if scr.topm.len() == m {
                        scr.topm.pop();
                    }
                    scr.topm.insert(rank, (d, k));
                }
            }
            for (slot, &(_, k)) in scr.topm.iter().enumerate() {
                scr.esc[i * m + slot] = k;
            }
        }
    }

    let mut stats = ShardStats {
        cells: b * k_n,
        ..ShardStats::default()
    };
    // Classification is pure per cell (it never reads sweep results), so
    // it fans out one pool task per vehicle cell; concatenating the task
    // outputs in cell order reproduces the serial shard-major work list
    // exactly, at any thread count.
    let vehicle_shard = &scr.vehicle_shard;
    let order_shard = &scr.order_shard;
    let vehicles_by_shard = &scr.vehicles_by_shard;
    let buckets = &scr.buckets;
    let vehicle_slot = &scr.vehicle_slot;
    let leg = &scr.leg;
    let esc = &scr.esc;
    let probes = &scr.probes;
    let block = &scr.block;
    let row_start = &scr.row_start;
    let cell_min_time_ref = &scr.cell_min_time;
    let slots_by_cell_ref = &scr.slots_by_cell;
    let tasks = pool.par_map(num_shards, |s| {
        let run = &vehicles_by_shard[buckets[s] as usize..buckets[s + 1] as usize];
        let mut work = Vec::new();
        let (mut evaluated, mut escalated) = (0usize, 0usize);
        // No active vehicle anchors in this cell: it has no work.
        let Some(t0) = cell_min_time_ref[s] else {
            return (work, evaluated, escalated);
        };
        // Orders the cell-level bound could not dismiss, with their column
        // in the cell's row layout: only these see the per-vehicle checks
        // (ascending order index, so the emitted work per vehicle keeps the
        // full pass's order).
        let mut live: Vec<(u32, u32)> = Vec::new();
        for &u in order_cells.occupied() {
            let u = u as usize;
            let offset = block[s * num_shards + u];
            // A foreign region's block the block bound dismissed.
            if offset == u32::MAX {
                continue;
            }
            let (start, end) = order_cells.run(u);
            for (col, &iu) in (offset as usize..).zip(&order_cells.orders[start..end]) {
                let i = iu as usize;
                let group_pruned = order_shard[i] != s as u32
                    && !esc[i * m..(i + 1) * m]
                        .iter()
                        .any(|&e| e != u32::MAX && vehicle_shard[e as usize] == s as u32)
                    && {
                        // `slots_by_cell` is non-empty whenever
                        // `cell_min_time` is set (both fed by the same
                        // active-vehicle scan).
                        let slots = slots_by_cell_ref[s].iter();
                        let min_leg = slots
                            .map(|&slot| leg[row_start[slot as usize] + col])
                            .reduce(|best, l| if l < best { l } else { best });
                        min_leg.is_none_or(|l| probes[i].prunes(t0, l))
                    };
                if !group_pruned {
                    live.push((iu, col as u32));
                }
            }
        }
        live.sort_unstable();
        for &k in run {
            let ku = k as usize;
            // A group is classified once, at its lowest member; every
            // member shares its shard, anchor slot and anchor time.
            let c = columns.column_of(ku).expect("every vehicle reads a column");
            let members = columns.members(&c);
            if members[0] != k || !is_active(ku) {
                continue;
            }
            let anchor_time = views[ku].anchor_time;
            let row = row_start[vehicle_slot[ku] as usize];
            for &(iu, col) in &live {
                let i = iu as usize;
                // The counters keep their per-`(order, vehicle)` meaning:
                // an evaluated group cell counts each member it stands for.
                let cells = if vehicle_shard[ku] == order_shard[i] {
                    members.len()
                } else {
                    let foreign = if !probes[i].prunes(anchor_time, leg[row + col as usize]) {
                        members.len()
                    } else {
                        // Pruned, but for the members escalation picked
                        // (twins are equidistant: a group's lowest ones).
                        let picks = esc[i * m..(i + 1) * m].iter();
                        let picked = picks.filter(|&&e| {
                            e != u32::MAX && columns.column_of(e as usize) == Some(c)
                        });
                        picked.count()
                    };
                    escalated += foreign;
                    foreign
                };
                if cells > 0 {
                    evaluated += cells;
                    work.push((iu, c));
                }
            }
        }
        (work, evaluated, escalated)
    });
    // Reserved exactly: the list's storage is kept from epoch to epoch, and
    // amortised growth would keep up to twice the largest epoch's list.
    scr.work.clear();
    scr.work
        .reserve_exact(tasks.iter().map(|t| t.0.len()).sum());
    for (cell_work, evaluated, escalated) in tasks {
        scr.work.extend(cell_work);
        stats.evaluated += evaluated;
        stats.escalated += escalated;
    }
    // Every cell is either evaluated or pruned; escalated is a subset of
    // evaluated.
    stats.pruned = stats.cells - stats.evaluated;
    // Restore the node_slot invariant (all u32::MAX) by resetting only the
    // entries this call touched.
    for &a in &scr.anchors {
        scr.node_slot[a.index()] = u32::MAX;
    }
    stats
}

/// The classification of a one-cell layout: no pair is foreign, so every
/// active column is evaluated for every order and nothing is escalated —
/// the list the general pass would emit, without its distance memo, its
/// escalation ranking or its cell aggregates. Columns come in the order of
/// their lowest members, each one run over the epoch's orders.
fn one_cell(
    b: usize,
    k_n: usize,
    columns: &ColumnMap,
    is_active: impl Fn(usize) -> bool,
    work: &mut Vec<(u32, u32)>,
) -> ShardStats {
    work.clear();
    let mut members = 0;
    for k in (0..k_n).filter(|&k| is_active(k)) {
        let c = columns.column_of(k).expect("every vehicle reads a column");
        let group = columns.members(&c);
        if group[0] as usize == k {
            members += group.len();
            work.extend((0..b as u32).map(|i| (i, c)));
        }
    }
    let cells = b * k_n;
    ShardStats {
        cells,
        evaluated: b * members,
        pruned: cells - b * members,
        ..ShardStats::default()
    }
}

#[cfg(test)]
mod tests;
