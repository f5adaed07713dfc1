//! Property-based invariants of the full pipeline, over randomly generated
//! instances.

use dpdp_core::models;
use dpdp_core::prelude::*;
use dpdp_data::{CampusConfig, DivergenceKind};
use dpdp_net::{TimeDelta, TimePoint};
use dpdp_sim::{DisruptionConfig, InvariantAuditor};
use proptest::prelude::*;

fn arb_dataset_config() -> impl Strategy<Value = DatasetConfig> {
    (2usize..8, 20usize..60, 1u64..1000, 1.0f64..1.5).prop_map(
        |(factories, orders, seed, detour)| {
            let mut cfg = DatasetConfig {
                campus: CampusConfig {
                    num_depots: 1 + (seed % 2) as usize,
                    num_factories: factories.max(3),
                    area_km: 8.0,
                    detour_factor: detour,
                    seed,
                    ..CampusConfig::default()
                },
                ..DatasetConfig::default()
            };
            cfg.generator.orders_per_day = orders;
            cfg.generator.seed = seed.wrapping_mul(31);
            cfg
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any generated instance, every baseline satisfies the accounting
    /// identities: TC = mu*NUV + delta*TTL, served + rejected = orders, and
    /// NUV never exceeds the fleet or the number of served orders.
    #[test]
    fn baseline_metrics_identities(cfg in arb_dataset_config(), seed in 0u64..50) {
        let ds = Dataset::new(cfg);
        let orders = ds.day_orders(0).len().min(15);
        prop_assume!(orders >= 3);
        let instance = ds.sampled_instance(0..1, orders, 6, seed);
        for mut d in [models::baseline1(), models::baseline2(), models::baseline3()] {
            let row = evaluate(&mut *d, &instance);
            prop_assert_eq!(row.served + row.rejected, instance.num_orders());
            let expect = instance.fleet.total_cost(row.nuv, row.ttl);
            prop_assert!((row.total_cost - expect).abs() < 1e-6);
            prop_assert!(row.nuv <= instance.num_vehicles());
            prop_assert!(row.nuv <= row.served.max(1));
            prop_assert!(row.ttl >= 0.0);
        }
    }

    /// The exact solver never exceeds the greedy incumbent, and its
    /// solution always validates (constraint audit over the whole route
    /// set).
    #[test]
    fn exact_never_worse_than_greedy(cfg in arb_dataset_config(), seed in 0u64..20) {
        let ds = Dataset::new(cfg);
        prop_assume!(ds.day_orders(0).len() >= 4);
        let instance = ds.sampled_instance(0..1, 4, 4, seed);
        let solver = ExactSolver {
            config: dpdp_baselines::ExactConfig {
                time_limit: Some(std::time::Duration::from_secs(5)),
                node_limit: Some(200_000),
            },
        };
        if let Some(sol) = solver.solve(&instance) {
            dpdp_baselines::exact::validate_solution(&instance, &sol.routes).unwrap();
            let mut b1 = models::baseline1();
            let row = evaluate(&mut *b1, &instance);
            if row.served == instance.num_orders() {
                prop_assert!(sol.total_cost <= row.total_cost + 1e-6,
                    "exact {} worse than greedy {}", sol.total_cost, row.total_cost);
            }
        }
    }

    /// STD matrices conserve mass: the matrix total equals the total order
    /// quantity, for any day.
    #[test]
    fn std_matrix_conserves_quantity(cfg in arb_dataset_config(), day in 0u64..30) {
        let ds = Dataset::new(cfg);
        let orders = ds.day_orders(day);
        let m = StdMatrix::from_orders(&orders, &ds.grid(), &ds.factory_index());
        let total: f64 = orders.iter().map(|o| o.quantity).sum();
        prop_assert!((m.total() - total).abs() < 1e-9);
    }

    /// ST scores are finite, non-negative, bounded by ln 2 under JS, and
    /// zero for empty routes — for arbitrary feasible direct routes.
    #[test]
    fn st_scores_are_bounded(cfg in arb_dataset_config(), seed in 0u64..20) {
        let ds = Dataset::new(cfg);
        prop_assume!(ds.day_orders(0).len() >= 2);
        let instance = ds.sampled_instance(0..1, 2, 2, seed);
        let scorer = StScorer::new(ds.grid(), ds.factory_index());
        let skl = StScorer::with_divergence(ds.grid(), ds.factory_index(), DivergenceKind::SymmetricKl);
        let pred = ds.predicted_std(1, 1);
        let order = &instance.orders()[0];
        let view = dpdp_routing::VehicleView::idle_at_depot(
            instance.fleet.vehicles[0].id,
            instance.fleet.vehicles[0].depot,
        );
        let route = dpdp_routing::Route::from_stops(vec![
            dpdp_routing::Stop::pickup(order.pickup, order.id),
            dpdp_routing::Stop::delivery(order.delivery, order.id),
        ]);
        if let Ok(sched) = dpdp_routing::simulate_schedule(
            &view, &route, &instance.network, &instance.fleet, instance.orders(),
        ) {
            let js = scorer.score(&view, &sched, &pred, instance.fleet.capacity);
            prop_assert!(js.is_finite() && js >= 0.0);
            prop_assert!(js <= std::f64::consts::LN_2 + 1e-9, "JS score {js} above ln 2");
            let kl = skl.score(&view, &sched, &pred, instance.fleet.capacity);
            prop_assert!(kl.is_finite() && kl >= 0.0);
        }
    }

    /// Every route the engine holds is valid after every epoch and every
    /// disruption — capacity, LIFO, pickup before delivery, deadlines, no
    /// route on a broken-down vehicle — and every order ends served or
    /// rejected, for Baselines 1–3 on random instances with cancellations
    /// (before dispatch and by route surgery), breakdowns and recoveries.
    #[test]
    fn disrupted_episodes_keep_every_route_valid(
        cfg in arb_dataset_config(),
        seed in 0u64..50,
        buffered in proptest::bool::ANY,
    ) {
        let ds = Dataset::new(cfg);
        let orders = ds.day_orders(0).len().min(30);
        prop_assume!(orders >= 5);
        let instance = ds.sampled_instance(0..1, orders, 6, seed);
        let disruptions = DisruptionConfig {
            cancellation_prob: 0.3,
            cancellation_delay: TimeDelta::from_minutes(60.0),
            breakdown_prob: 0.4,
            breakdown_window: (TimePoint::from_hours(8.0), TimePoint::from_hours(18.0)),
            recovery_delay: Some((TimeDelta::from_minutes(20.0), TimeDelta::from_minutes(90.0))),
        };
        let buffering = if buffered {
            dpdp_sim::BufferingMode::FixedInterval(TimeDelta::from_minutes(20.0))
        } else {
            dpdp_sim::BufferingMode::Immediate
        };
        let sim = Simulator::builder(&instance)
            .buffering(buffering)
            .disruptions(disruptions)
            .seed(seed)
            .build()
            .unwrap();
        for mut d in [models::baseline1(), models::baseline2(), models::baseline3()] {
            let mut auditor = InvariantAuditor::default();
            sim.run_observed(&mut *d, &mut [&mut auditor]);
            prop_assert_eq!(auditor.episodes, 1);
            prop_assert!(auditor.routes > 0, "no route was audited");
        }
    }

    /// Buffering can only delay decisions: the average response time is
    /// non-decreasing in the buffer period, and immediate service has zero
    /// response time.
    #[test]
    fn buffering_response_monotonicity(cfg in arb_dataset_config(), seed in 0u64..20) {
        let ds = Dataset::new(cfg);
        prop_assume!(ds.day_orders(0).len() >= 5);
        let instance = ds.sampled_instance(0..1, 5, 5, seed);
        let mut responses = Vec::new();
        for minutes in [0.0, 10.0, 30.0] {
            let buffering = if minutes == 0.0 {
                dpdp_sim::BufferingMode::Immediate
            } else {
                dpdp_sim::BufferingMode::FixedInterval(TimeDelta::from_minutes(minutes))
            };
            let mut b1 = models::baseline1();
            let r = Simulator::builder(&instance)
                .buffering(buffering)
                .build()
                .unwrap()
                .run_observed(&mut *b1, &mut [&mut InvariantAuditor::default()]);
            responses.push(r.metrics.avg_response_secs);
        }
        prop_assert_eq!(responses[0], 0.0);
        prop_assert!(responses[1] <= responses[2] + 1e-9);
    }
}
