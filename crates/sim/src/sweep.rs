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

impl ShardStats {
    /// Fraction of cells pruned (0 when no cells were considered).
    pub fn pruned_fraction(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.pruned as f64 / self.cells as f64
        }
    }
}

/// Reusable classification buffers for [`plan_sweep`] — part of the
/// per-episode [`EpochScratch`](crate::batch::EpochScratch) arena. Every
/// vector is cleared (capacity retained, never freed) at the start of each
/// call, so steady-state epochs classify without touching the allocator.
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
    /// Pickup node of each epoch order (the batched-kernel target list).
    pickups: Vec<NodeId>,
    /// Anchor-major distance memo: `dist[slot * b + i]` = anchor→pickup km.
    dist: Vec<f64>,
    /// Travel times of `dist`, same layout.
    leg: Vec<TimeDelta>,
    /// Parent region of each epoch order's shard.
    order_region: Vec<usize>,
    /// Per-order prune probes (factored deadline bound). Read back by the
    /// batch: a commit delta runs the same bound on the same orders.
    pub(crate) probes: Vec<PruneProbe>,
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

    // Distance memo: vehicles cluster on far fewer anchor nodes than there
    // are vehicles (idle trucks share depots), so anchor→pickup legs are
    // looked up once per (order, anchor node) instead of once per cell —
    // on a 10k-vehicle fleet that is the difference between a sweep-bound
    // and a memo-bound classification pass. `dist` feeds the escalation
    // ranking (raw km), `leg` the prune probes (travel time). The memo is
    // anchor-major (`dist[slot * b + i]`): each anchor's row over the
    // epoch's pickups is one contiguous `distances_from` matrix scan plus
    // one fused `travel_times` conversion, entry-for-entry bit-identical
    // to the per-cell scalar lookups it replaces.
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
    scr.pickups.clear();
    scr.pickups.extend(epoch_orders().map(|o| o.pickup));
    scr.dist.clear();
    scr.dist.resize(ns * b, 0.0);
    scr.leg.clear();
    scr.leg.resize(ns * b, TimeDelta::ZERO);
    for slot in 0..ns {
        let row = slot * b..(slot + 1) * b;
        net.distances_from(scr.anchors[slot], &scr.pickups, &mut scr.dist[row.clone()]);
        fleet.travel_times(&scr.dist[row.clone()], &mut scr.leg[row]);
    }
    scr.order_region.clear();
    scr.order_region
        .extend(scr.order_shard.iter().map(|&s| map.region_of(s as usize)));

    // Escalation marks: per order, the m nearest foreign vehicles *within
    // the order's parent region* by anchor→pickup distance (total_cmp,
    // ties broken on the lower vehicle id — a total order, so the scan
    // order over the region's run is irrelevant). Flat maps are one
    // region, so the run is the whole fleet there; hierarchical maps never
    // spend escalation slots on cross-region vehicles. `m` is small, so a
    // running top-m scan beats sorting — `esc[i * m ..]` holds order `i`'s
    // escalated vehicle ids.
    let m = ctx.escalation.min(k_n);
    scr.esc.clear();
    scr.esc.resize(b * m, u32::MAX);
    if m > 0 {
        for i in 0..b {
            scr.topm.clear();
            let run = &scr.vehicles_by_shard
                [scr.region_end[scr.order_region[i]]..scr.region_end[scr.order_region[i] + 1]];
            for &k in run {
                let ku = k as usize;
                if scr.vehicle_shard[ku] == scr.order_shard[i] || !is_active(ku) {
                    continue;
                }
                let d = scr.dist[scr.vehicle_slot[ku] as usize * b + i];
                // Insert into the small sorted top-m buffer; strict
                // ordering by (distance, id) keeps ties deterministic.
                let pos = scr
                    .topm
                    .iter()
                    .position(|&(bd, bk)| d.total_cmp(&bd).then(k.cmp(&bk)).is_lt())
                    .unwrap_or(scr.topm.len());
                if pos < m {
                    if scr.topm.len() == m {
                        scr.topm.pop();
                    }
                    scr.topm.insert(pos, (d, k));
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
    let cell_min_time_ref = &scr.cell_min_time;
    let slots_by_cell_ref = &scr.slots_by_cell;
    let tasks = pool.par_map(num_shards, |s| {
        let run = &vehicles_by_shard[buckets[s] as usize..buckets[s + 1] as usize];
        let mut work = Vec::new();
        let (mut evaluated, mut escalated) = (0usize, 0usize);
        // Orders the cell-level bound could not dismiss: only these see
        // the per-vehicle checks (ascending order index, so the emitted
        // work per vehicle keeps the full pass's order).
        let mut live: Vec<u32> = Vec::new();
        for i in 0..b {
            let group_pruned = order_shard[i] != s as u32
                && !esc[i * m..(i + 1) * m]
                    .iter()
                    .any(|&e| e != u32::MAX && vehicle_shard[e as usize] == s as u32)
                && match cell_min_time_ref[s] {
                    Some(t0) => {
                        let mut min_leg: Option<TimeDelta> = None;
                        for &slot in &slots_by_cell_ref[s] {
                            let l = leg[slot as usize * b + i];
                            if min_leg.is_none_or(|cur| l < cur) {
                                min_leg = Some(l);
                            }
                        }
                        // `slots_by_cell` is non-empty whenever
                        // `cell_min_time` is set (both fed by the same
                        // active-vehicle scan).
                        min_leg.map(|l| probes[i].prunes(t0, l)).unwrap_or(true)
                    }
                    // No active vehicle anchors in this cell.
                    None => true,
                };
            if !group_pruned {
                live.push(i as u32);
            }
        }
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
            let slot = vehicle_slot[ku] as usize;
            for &iu in &live {
                let i = iu as usize;
                // The counters keep their per-`(order, vehicle)` meaning:
                // an evaluated group cell counts each member it stands for.
                let cells = if vehicle_shard[ku] == order_shard[i] {
                    members.len()
                } else {
                    let foreign = if !probes[i].prunes(anchor_time, leg[slot * b + i]) {
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
mod tests {
    use super::*;
    use dpdp_net::{
        FleetConfig, Node, NodeId, Order, OrderId, Point, RoadNetwork, ShardPolicy, TimeDelta,
        TimePoint,
    };

    /// Two clusters 200 km apart; deadlines allow in-cluster service only.
    fn setup() -> (RoadNetwork, FleetConfig, Vec<Order>) {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(5.0, 0.0)),
            Node::factory(NodeId(2), Point::new(10.0, 0.0)),
            Node::depot(NodeId(3), Point::new(200.0, 0.0)),
            Node::factory(NodeId(4), Point::new(205.0, 0.0)),
            Node::factory(NodeId(5), Point::new(210.0, 0.0)),
        ];
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        let fleet = FleetConfig::homogeneous(
            2,
            &[NodeId(0), NodeId(3)],
            10.0,
            500.0,
            2.0,
            60.0,
            TimeDelta::ZERO,
        )
        .unwrap();
        // One order per cluster, one hour of slack: served locally in
        // minutes, unreachable from the other cluster (200 km ≈ 3.3 h).
        let orders = vec![
            Order::new(
                OrderId(0),
                NodeId(1),
                NodeId(2),
                1.0,
                TimePoint::from_hours(8.0),
                TimePoint::from_hours(9.0),
            )
            .unwrap(),
            Order::new(
                OrderId(1),
                NodeId(4),
                NodeId(5),
                1.0,
                TimePoint::from_hours(8.0),
                TimePoint::from_hours(9.0),
            )
            .unwrap(),
        ];
        (net, fleet, orders)
    }

    /// Classifies `epoch` over an ungrouped fleet on a serial pool: the
    /// work accounting and the work list.
    fn classify(
        ctx: &ShardContext,
        planner: &RoutePlanner<'_>,
        views: &[VehicleView],
        epoch: &[OrderId],
    ) -> (ShardStats, Vec<(u32, u32)>) {
        let mut scr = SweepBuffers::default();
        let columns = ColumnMap::ungrouped(views.len());
        let pool = ThreadPool::new(1);
        let stats = plan_sweep(ctx, planner, views, epoch, None, &columns, &pool, &mut scr);
        (stats, scr.work)
    }

    /// Epoch-time views: the simulator advances every vehicle to the
    /// decision instant before a batch forms, so anchor times sit at `now`
    /// (a vehicle anchored in the past could pre-position and the bound
    /// would rightly not prune it).
    fn views_at(fleet: &FleetConfig, now: TimePoint) -> Vec<VehicleView> {
        fleet
            .vehicles
            .iter()
            .map(|v| {
                let mut view = VehicleView::idle_at_depot(v.id, v.depot);
                view.anchor_time = now;
                view
            })
            .collect()
    }

    #[test]
    fn cross_cluster_cells_prune_and_escalation_overrides() {
        let (net, fleet, orders) = setup();
        let planner = RoutePlanner::new(&net, &fleet, &orders);
        let views = views_at(&fleet, TimePoint::from_hours(8.0));
        let map = Arc::new(ShardMap::build(&net, 2, ShardPolicy::default(), 7));
        let epoch: Vec<OrderId> = orders.iter().map(|o| o.id).collect();

        // No escalation: both cross-cluster cells prune.
        let ctx = ShardContext {
            map: Arc::clone(&map),
            escalation: 0,
        };
        let (stats, work) = classify(&ctx, &planner, &views, &epoch);
        assert_eq!(stats.cells, 4);
        assert_eq!(stats.pruned, 2);
        assert_eq!(stats.evaluated, 2);
        assert_eq!(stats.escalated, 0);
        assert_eq!(work.len(), 2);
        // Exactly the in-shard diagonal survives.
        assert!(work.contains(&(0, 0)));
        assert!(work.contains(&(1, 1)));

        // Escalation m = 1 forces the nearest foreign vehicle back in.
        let ctx = ShardContext { map, escalation: 1 };
        let (stats, work) = classify(&ctx, &planner, &views, &epoch);
        assert_eq!(stats.pruned, 0);
        assert_eq!(stats.escalated, 2);
        assert_eq!(work.len(), 4);
    }

    #[test]
    fn loose_deadlines_keep_every_cell_evaluated() {
        let (net, fleet, mut orders) = setup();
        for o in &mut orders {
            o.deadline = TimePoint::from_hours(48.0);
        }
        let planner = RoutePlanner::new(&net, &fleet, &orders);
        let views = views_at(&fleet, TimePoint::from_hours(8.0));
        let map = Arc::new(ShardMap::build(&net, 2, ShardPolicy::default(), 7));
        let ctx = ShardContext { map, escalation: 0 };
        let epoch: Vec<OrderId> = orders.iter().map(|o| o.id).collect();
        let (stats, _) = classify(&ctx, &planner, &views, &epoch);
        assert_eq!(stats.pruned, 0);
        assert_eq!(stats.evaluated, 4);
        assert_eq!(stats.escalated, 2);
        assert_eq!(stats.pruned_fraction(), 0.0);
    }

    #[test]
    fn hierarchical_escalation_stays_inside_the_parent_region() {
        // Four clusters in two metro regions: A = {x≈0, x≈40}, B =
        // {x≈1000, x≈1040}. At 60 km/h with half an hour of slack only the
        // in-cell vehicle can serve an order, so every cross-cell cell is
        // prunable — whatever survives beyond the diagonal is escalation.
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(1.0, 0.0)),
            Node::depot(NodeId(2), Point::new(40.0, 0.0)),
            Node::factory(NodeId(3), Point::new(41.0, 0.0)),
            Node::depot(NodeId(4), Point::new(1000.0, 0.0)),
            Node::factory(NodeId(5), Point::new(1001.0, 0.0)),
            Node::depot(NodeId(6), Point::new(1040.0, 0.0)),
            Node::factory(NodeId(7), Point::new(1041.0, 0.0)),
        ];
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        let fleet = FleetConfig::homogeneous(
            4,
            &[NodeId(0), NodeId(2), NodeId(4), NodeId(6)],
            10.0,
            500.0,
            2.0,
            60.0,
            TimeDelta::ZERO,
        )
        .unwrap();
        // One order picked up in cell A1 (classification keys on the
        // pickup node; the delivery in A2 leaves the cell assignment
        // untouched).
        let orders = vec![Order::new(
            OrderId(0),
            NodeId(1),
            NodeId(3),
            1.0,
            TimePoint::from_hours(8.0),
            TimePoint::from_hours(8.5),
        )
        .unwrap()];
        let planner = RoutePlanner::new(&net, &fleet, &orders);
        let views = views_at(&fleet, TimePoint::from_hours(8.0));
        let map = Arc::new(ShardMap::build(
            &net,
            4,
            ShardPolicy::Hierarchical {
                regions: 2,
                cells_per_region: 2,
                iterations: 8,
            },
            7,
        ));
        assert_eq!(map.num_regions(), 2);
        let epoch: Vec<OrderId> = orders.iter().map(|o| o.id).collect();

        // m = 3 would reach every foreign vehicle under a flat map; under
        // the hierarchical map only the same-region foreign vehicle (A2)
        // may consume an escalation slot — region B's two vehicles must
        // stay pruned however wide the escalation gets.
        let ctx = ShardContext {
            map: Arc::clone(&map),
            escalation: 3,
        };
        let (stats, _) = classify(&ctx, &planner, &views, &epoch);
        assert_eq!(stats.cells, 4);
        assert_eq!(stats.evaluated, 2, "in-cell + same-region escalation");
        assert_eq!(stats.escalated, 1);
        assert_eq!(
            stats.pruned, 2,
            "cross-region vehicles must not consume escalation slots"
        );
    }

    #[test]
    fn work_list_is_vehicle_shard_major() {
        let (net, fleet, orders) = setup();
        let planner = RoutePlanner::new(&net, &fleet, &orders);
        let views = views_at(&fleet, TimePoint::from_hours(8.0));
        let epoch: Vec<OrderId> = orders.iter().map(|o| o.id).collect();
        // Two shards, and the one cell of the unsharded default.
        for cells in [2, 1] {
            let map = Arc::new(ShardMap::build(&net, cells, ShardPolicy::default(), 7));
            let shard_of = |k: u32| map.shard_of(views[k as usize].anchor_node);
            let ctx = ShardContext {
                map: Arc::clone(&map),
                escalation: 2,
            };
            let (_, work) = classify(&ctx, &planner, &views, &epoch);
            let shards: Vec<usize> = work.iter().map(|&(_, k)| shard_of(k)).collect();
            let mut sorted = shards.clone();
            sorted.sort_unstable();
            assert_eq!(shards, sorted, "work must group by vehicle shard");
            // Inside a shard the list is column-major: a column's cells are
            // one run, rows ascending (the batch's column index is this list).
            let runs: Vec<&[(u32, u32)]> = work.chunk_by(|a, b| a.1 == b.1).collect();
            let mut vehicles: Vec<u32> = runs.iter().map(|run| run[0].1).collect();
            assert_eq!(vehicles.len(), views.len(), "every vehicle has cells here");
            vehicles.sort_unstable();
            vehicles.dedup();
            assert_eq!(vehicles.len(), runs.len(), "one run per vehicle");
            for run in runs {
                assert!(run.len() > 1 && run.is_sorted_by(|a, b| a.0 < b.0));
            }
        }
    }
}
