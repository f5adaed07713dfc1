//! Train, checkpoint, reload: the full ST-DDGN life cycle.
//!
//! Trains on a large-scale instance, watches the convergence curve, saves
//! the learned weights to a byte buffer (the `dpdp-nn` checkpoint format),
//! reloads them into a fresh agent and verifies the policies agree.
//!
//! ```text
//! cargo run -p dpdp-core --release --example train_dispatcher
//! ```

use dpdp_core::models;
use dpdp_core::prelude::*;
use dpdp_nn::serialize::{load_params, save_params};

fn main() {
    let presets = Presets::quick();
    let instance = presets.large_instance(9);
    let prediction = presets.train_prediction(4);

    // Train.
    let mut agent = models::dqn_agent(ModelKind::StDdgn, presets.dataset(), 9);
    agent.set_prediction(Some(prediction.clone()));
    println!("training ST-DDGN on a 150-order instance…");
    let report = train(&mut agent, &instance, &TrainerConfig::new(80));
    for p in report.points.iter().step_by(16) {
        println!(
            "  episode {:>3}: NUV {:>3}  TC {:>10.1}",
            p.episode, p.nuv, p.total_cost
        );
    }

    // Checkpoint to bytes (would be a file in production).
    let checkpoint = save_params(agent.params());
    println!(
        "checkpoint: {} bytes for {} parameter tensors",
        checkpoint.len(),
        agent.params().len()
    );

    // Reload into a brand-new agent with different initial weights.
    let mut restored = models::dqn_agent(ModelKind::StDdgn, presets.dataset(), 12345);
    let mut fresh_params = restored.params().clone();
    load_params(&mut fresh_params, &checkpoint).expect("checkpoint layout matches");
    restored.load_params(&fresh_params);
    restored.set_prediction(Some(prediction));
    restored.set_training(false);
    agent.set_training(false);

    let a = evaluate(&mut agent, &instance);
    let b = evaluate(&mut restored, &instance);
    println!(
        "original: NUV {} TC {:.1} | restored: NUV {} TC {:.1}",
        a.nuv, a.total_cost, b.nuv, b.total_cost
    );
    assert_eq!(a.nuv, b.nuv, "restored policy must act identically");
    assert!((a.total_cost - b.total_cost).abs() < 1e-6);
    println!("restored policy matches the trained one exactly ✓");

    // What the forward-only passes (action choices, TD targets) cost:
    // interchangeable vehicles share one row of the network.
    let stats = agent.forward_stats();
    println!(
        "forward-only passes: {} over {} vehicle rows, {} feasible, {} evaluated ({:.1} per pass)",
        stats.forwards,
        stats.rows,
        stats.feasible,
        stats.evaluated,
        stats.evaluated as f64 / stats.forwards.max(1) as f64
    );
    // What a gradient costs: the rows `Q(s, a)` reads, not the fleet.
    let stats = agent.train_stats();
    println!(
        "training passes: {} over {} vehicle rows, {} in the field ({:.1} per pass)",
        stats.samples,
        stats.rows,
        stats.field_rows,
        stats.field_rows as f64 / stats.samples.max(1) as f64
    );
}
