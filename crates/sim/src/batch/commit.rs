//! The commit of one decision: [`DecisionBatch::resolve`]'s body.
//!
//! An acceptance materialises the chosen cell's route, moves the vehicle
//! onto it and replans the vehicle's column for the still-undecided orders
//! of the epoch — the plan delta of the module docs of [`super`], pruned by
//! the same exact bound as the initial sweep.

use super::{BatchInner, CommitAssignment, Decision, DecisionBatch, DecisionReason};
use dpdp_net::{OrderId, VehicleId};
use dpdp_routing::{PlanScore, RoutePlanner};

/// The body of [`DecisionBatch::resolve`]: classifies the choice and,
/// for an acceptance, applies it to the vehicle's state and the
/// snapshot.
pub(super) fn commit(
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
    // only for the still-undecided orders — replanned inline, each
    // result landing back in its own row, all sharing one schedule
    // cache rebuilt for the vehicle's new route. The column gets the
    // same exact prune as the initial sweep (foreign
    // orders the bound rules out skip the sweep; no m-nearest
    // escalation here — a single column has no ranking to run), which
    // is bit-identical to replanning every cell. A pruned cell's value
    // is the vehicle's new fallback, written once below, so a pruned
    // delta cell costs its bound check and — unless the column index
    // says the row stores a now stale cell of `k` — touches no row.
    // The block bound goes further: an order cell it dismisses for the
    // vehicle's cell (see `cells::Undecided`) is pruned whole, its rows
    // counted and not visited, but for the ones that store a stale
    // cell of `k`, which the stamp loop below finds and prunes.
    // The cache is built in `k`'s own slot and keyed with its new view:
    // nothing else reads the slot this epoch, and the next epoch keeps
    // it if the view has not moved by then.
    let view = &views[k.index()];
    let slot = &mut caches[k.index()];
    slot.rebuild(&planner, view);
    stats.caches_built += 1;
    let cache = slot.cache();
    plans.columns[k.index()].fallback = planner.pruned_score(Some(cache), view);
    let map = &*batch.shards.map;
    let vehicle_shard = map.shard_of(view.anchor_node) as u32;
    let dismissed = undecided.enter(
        map,
        &planner,
        vehicle_shard as usize,
        view.anchor_time,
        batch.now,
    );
    stats.cells += dismissed;
    stats.pruned += dismissed;
    *acceptances += 1;
    let stamp = *acceptances;
    // A dismissed row storing a stale cell of `k` is overwritten after
    // the walk, which borrows the column index.
    let mut stale = Vec::new();
    for j in plans.stored_rows(k.index()) {
        if undecided.dismisses(j as u32, delta_rows[j].shard) {
            stale.push(j);
        } else {
            delta_rows[j].holds = stamp;
        }
    }
    for j in stale {
        plans.prune_stored(j, k.index());
    }
    let delta_rows = &*delta_rows;
    let (orders, epoch) = (batch.orders, &batch.epoch_orders);
    // Each undecided row's cell `(j, k)`: pruned, or scored on the
    // shared cache. The stored probe runs the float expression
    // `provably_infeasible` would (see `PruneProbe::prunes`).
    for &j in undecided.rows() {
        let j = j as usize;
        let order = &orders[epoch[j].index()];
        let foreign = delta_rows[j].shard != vehicle_shard;
        let pruned = foreign && {
            let to_pickup = planner.leg_time(view.anchor_node, order.pickup);
            delta_rows[j].probe.prunes(view.anchor_time, to_pickup)
        };
        stats.cells += 1;
        if pruned {
            stats.pruned += 1;
            if delta_rows[j].holds == stamp {
                plans.prune_stored(j, k.index());
            }
        } else {
            stats.evaluated += 1;
            stats.escalated += usize::from(foreign);
            plans.store(j, k.index(), planner.score_cached(cache, view, order));
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
