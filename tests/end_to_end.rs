//! Cross-crate integration tests: the full pipeline from synthetic data to
//! trained dispatchers and exact optima, and a disrupted metro episode.

use dpdp_core::models::{self, ModelSpec};
use dpdp_core::prelude::*;
use dpdp_net::TimeDelta;
use dpdp_rl::CapacityRecorder;
use dpdp_sim::{Dispatcher, InvariantAuditor};

fn quick_presets() -> Presets {
    let mut cfg = DatasetConfig::default();
    cfg.generator.orders_per_day = 60;
    Presets::with_config(cfg)
}

#[test]
fn baselines_serve_all_orders_on_sampled_instances() {
    let presets = quick_presets();
    for seed in [1, 2] {
        let instance = presets.dataset().sampled_instance(0..3, 30, 10, seed);
        for mut d in [
            models::baseline1(),
            models::baseline2(),
            models::baseline3(),
        ] {
            let row = evaluate(&mut *d, &instance);
            assert_eq!(
                row.served, 30,
                "{} rejected orders on seed {seed}",
                row.algo
            );
            // Cost identity: TC = mu * NUV + delta * TTL.
            let expect = instance.fleet.total_cost(row.nuv, row.ttl);
            assert!((row.total_cost - expect).abs() < 1e-6);
        }
    }
}

#[test]
fn exact_lower_bounds_all_heuristics_on_tiny_instances() {
    let presets = quick_presets();
    for seed in [3, 4, 5] {
        let instance = presets.tiny_instance(5, seed);
        let sol = ExactSolver::new().solve(&instance).expect("feasible");
        assert!(sol.optimal);
        dpdp_baselines::exact::validate_solution(&instance, &sol.routes).unwrap();
        for mut d in [
            models::baseline1(),
            models::baseline2(),
            models::baseline3(),
        ] {
            let row = evaluate(&mut *d, &instance);
            if row.served == instance.num_orders() {
                assert!(
                    sol.total_cost <= row.total_cost + 1e-6,
                    "exact {} > {} {} on seed {seed}",
                    sol.total_cost,
                    row.algo,
                    row.total_cost
                );
            }
        }
    }
}

#[test]
fn every_paper_model_trains_and_evaluates_end_to_end() {
    let presets = quick_presets();
    let instance = presets.dataset().sampled_instance(0..3, 20, 8, 7);
    for spec in ModelSpec::comparison_lineup() {
        let mut model = dpdp_bench_model(spec, &presets);
        // Two training episodes, then greedy evaluation.
        if spec.is_learned() {
            train(model.as_mut(), &instance, &TrainerConfig::new(2));
        }
        let row = evaluate(model.as_mut(), &instance);
        assert_eq!(row.algo, spec.name());
        assert_eq!(
            row.served + row.rejected,
            instance.num_orders(),
            "{} lost orders",
            spec.name()
        );
        assert!(row.total_cost >= 0.0);
    }
}

/// Local stand-in for `dpdp_bench::Model` (the bench crate is not a
/// dependency of the test target): builds a boxed dispatcher per spec with
/// ST prediction wired.
fn dpdp_bench_model(spec: ModelSpec, presets: &Presets) -> Box<dyn Dispatcher> {
    match spec {
        ModelSpec::Baseline1 => models::baseline1(),
        ModelSpec::Baseline2 => models::baseline2(),
        ModelSpec::Baseline3 => models::baseline3(),
        ModelSpec::ActorCritic => Box::new(models::actor_critic(presets.dataset(), 1)),
        ModelSpec::Dqn(kind) => {
            let mut agent = models::dqn_agent(kind, presets.dataset(), 1);
            agent.set_prediction(Some(presets.train_prediction(2)));
            Box::new(agent)
        }
    }
}

#[test]
fn trained_policy_checkpoint_roundtrip_preserves_behaviour() {
    use dpdp_nn::serialize::{load_params, save_params};
    let presets = quick_presets();
    let instance = presets.dataset().sampled_instance(0..2, 15, 6, 11);
    let mut agent = models::dqn_agent(ModelKind::Ddgn, presets.dataset(), 5);
    train(&mut agent, &instance, &TrainerConfig::new(3));
    agent.set_training(false);
    let before = evaluate(&mut agent, &instance);

    let bytes = save_params(agent.params());
    let mut clone = models::dqn_agent(ModelKind::Ddgn, presets.dataset(), 999);
    let mut params = clone.params().clone();
    load_params(&mut params, &bytes).unwrap();
    clone.load_params(&params);
    clone.set_training(false);
    let after = evaluate(&mut clone, &instance);
    assert_eq!(before.nuv, after.nuv);
    assert!((before.total_cost - after.total_cost).abs() < 1e-9);
}

#[test]
fn capacity_recorder_composes_with_learned_agents() {
    let presets = quick_presets();
    let instance = presets.dataset().sampled_instance(0..2, 15, 6, 13);
    let mut agent = models::dqn_agent(ModelKind::Dgn, presets.dataset(), 3);
    let index = presets.dataset().factory_index();
    // The recorder observes the episode; the agent is not wrapped.
    let mut rec = CapacityRecorder::new(instance.grid, index);
    let result = Simulator::builder(&instance)
        .build()
        .unwrap()
        .run_observed(&mut agent, &mut [&mut rec]);
    assert_eq!(result.metrics.served, 15);
    let m = rec.take_matrix();
    assert!(m.total() > 0.0, "capacity must be recorded somewhere");
}

#[test]
fn st_ddgn_full_pipeline_with_prediction() {
    // The headline model, end to end: dataset -> prediction -> scorer ->
    // training -> greedy evaluation, all deterministic per seed.
    let presets = quick_presets();
    let instance = presets.dataset().sampled_instance(0..3, 20, 8, 17);
    let mut a = models::dqn_agent(ModelKind::StDdgn, presets.dataset(), 21);
    a.set_prediction(Some(presets.train_prediction(3)));
    train(&mut a, &instance, &TrainerConfig::new(3));
    a.set_training(false);
    let first = evaluate(&mut a, &instance);

    let mut b = models::dqn_agent(ModelKind::StDdgn, presets.dataset(), 21);
    b.set_prediction(Some(presets.train_prediction(3)));
    train(&mut b, &instance, &TrainerConfig::new(3));
    b.set_training(false);
    let second = evaluate(&mut b, &instance);
    assert_eq!(first.nuv, second.nuv, "same seed must give same policy");
    assert!((first.total_cost - second.total_cost).abs() < 1e-9);
}

/// The disrupted metro smoke: one audited Baseline 1 episode on the metro
/// preset with seeded cancellations and breakdowns armed, under 10-minute
/// buffering. The scenario must not be vacuous (at least 1% of orders
/// cancelled, at least one breakdown), and every order must end in exactly
/// one final state: served, or rejected for a reason — so every stranded
/// order was re-dispatched or accounted for.
#[test]
fn disrupted_metro_episode_cancels_breaks_down_and_accounts_for_every_order() {
    const ORDERS: usize = 240;
    const FLEET: usize = 32;
    let (metro, disruptions) = Presets::metro_disrupted(7);
    let instance = metro.metro_instance(ORDERS, FLEET, 1);
    let mut probe = EvalProbe::default();
    let mut auditor = InvariantAuditor::default();
    let result = Simulator::builder(&instance)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(10.0)))
        .disruptions(disruptions)
        .seed(7)
        .build()
        .unwrap()
        .run_observed(&mut Baseline1, &mut [&mut probe, &mut auditor]);
    let m = &result.metrics;
    assert_eq!(auditor.episodes, 1);
    assert!(
        m.rejections.cancelled * 100 >= ORDERS,
        "vacuous: {} cancellations over {ORDERS} orders (< 1%)",
        m.rejections.cancelled
    );
    assert!(probe.breakdowns >= 1, "no breakdown");
    assert_eq!(
        m.served + m.rejections.total(),
        ORDERS,
        "orders lost: served {} + rejected by reason {}",
        m.served,
        m.rejections.total()
    );
    assert!(m.total_cost.is_finite(), "total cost {}", m.total_cost);
}
