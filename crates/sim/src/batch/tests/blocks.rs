//! The block bound of commit deltas, on the two-town fixtures.

use super::*;

/// The block bound of commit deltas is live and changes nothing. On a
/// hierarchical map of the two towns (two regions of two cells each), the
/// far-homed vehicle, which stands for itself, takes the loose town-B hook
/// and drives off to town B: from there no tight town-A order is
/// reachable, so its later deltas dismiss town A's order cells whole —
/// and the town-A rows that store its now stale cells are still
/// overwritten with its fallback. Every row reads as the one-cell batch's
/// after every step, and the counters are those of the per-row rule,
/// computed here row by row, while the deltas visited some rows and
/// skipped others.
#[test]
fn a_delta_visits_only_the_order_cells_its_vehicle_can_reach() {
    let extra = vec![
        (false, 0, 2, 1.0),
        (true, 3, 1, 0.8),
        (false, 2, 0, 1.9),
        (true, 1, 2, 1.2),
        (false, 3, 1, 0.6),
        (true, 0, 1, 0.7),
    ];
    let inst = two_towns(MIXED_FLEET, &epoch_specs(extra));
    let planner = RoutePlanner::new(&inst.network, &inst.fleet, inst.orders());
    let policy = ShardPolicy::Hierarchical {
        regions: 2,
        cells_per_region: 2,
        iterations: 8,
    };
    let shards = ShardContext {
        map: Arc::new(ShardMap::build(&inst.network, 4, policy, 7)),
        escalation: 1,
    };
    let (fleet, active) = mixed_fleet(&inst);
    let mut scratch = EpochScratch::default();
    let sharded = batch_of(&inst, fleet, Some(active), shards, &mut scratch);
    let (flat, _) = mixed_batch(&inst, false);
    let n = sharded.len();
    let (mut visited, mut skipped, mut stale_skipped) = (0, 0, 0);
    for i in 0..n {
        for j in i..n {
            assert_eq!(
                dense_row(&sharded, j),
                dense_row(&flat, j),
                "row {j} at step {i}"
            );
        }
        let choice = if i == 0 {
            Some(VehicleId::from_index(FAR_HOME))
        } else {
            flat.with_context(i, |ctx| {
                (0..ctx.num_vehicles())
                    .find(|&k| ctx.plan(k).feasible())
                    .map(VehicleId::from_index)
            })
        };
        let stored_before: Vec<bool> = (0..n)
            .map(|j| choice.is_some_and(|k| stored_columns(&sharded, j).contains(&k.0)))
            .collect();
        let mut expect = sharded.shard_stats();
        let decision = sharded.resolve(i, choice);
        assert_eq!(decision, flat.resolve(i, choice));
        let Some(k) = decision.vehicle else {
            assert_eq!(sharded.shard_stats(), expect);
            continue;
        };
        expect.caches_built += 1;
        let view = sharded.inner.borrow().views[k.index()].clone();
        for j in i + 1..n {
            let foreign = sharded.shard_of_order(j) != sharded.shard_of_vehicle(k);
            expect.cells += 1;
            if foreign && planner.provably_infeasible(&view, sharded.order(j)) {
                expect.pruned += 1;
            } else {
                expect.evaluated += 1;
                expect.escalated += usize::from(foreign);
            }
        }
        assert_eq!(sharded.shard_stats(), expect, "after order {i}");
        let rows = sharded.inner.borrow().undecided.rows().to_vec();
        visited += rows.len();
        skipped += n - i - 1 - rows.len();
        let dismissed = (i + 1..n).filter(|&j| !rows.contains(&(j as u32)));
        stale_skipped += dismissed.filter(|&j| stored_before[j]).count();
    }
    assert!(
        visited > 0 && skipped > 0,
        "{visited} visited, {skipped} skipped"
    );
    assert!(stale_skipped > 0, "no dismissed row held a stale cell");
}
