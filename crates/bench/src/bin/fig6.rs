//! **Fig. 6** regenerator: NUV and TC comparison of DQN / AC / DGN /
//! ST-DDGN / Baselines 1–3 on large-scale instances (50 vehicles, 150
//! orders).
//!
//! Observer-based: every evaluation episode streams its counts (epochs,
//! decisions, per-reason rejection breakdown) through `dpdp-core`'s
//! [`dpdp_core::experiment::EvalProbe`] in one pass, with the
//! simulator's per-order and per-vehicle logs switched off — no post-hoc
//! `EpisodeResult` scraping.
//!
//! ```text
//! cargo run -p dpdp-bench --release --bin fig6 [--quick] [--episodes N] [--instances N]
//! ```

use dpdp_bench::{build_and_train, write_artifact, Cli, Model};
use dpdp_core::experiment::mean_row;
use dpdp_core::models::ModelSpec;
use dpdp_core::prelude::*;

fn main() {
    let cli = Cli::parse(120, 3);
    let presets = cli.presets();
    let train_instance = presets.large_instance(cli.seed);
    let eval_instances: Vec<Instance> = (0..cli.instances)
        .map(|i| presets.large_test_instance(cli.seed + 1000 + i as u64))
        .collect();

    println!(
        "Fig. 6: large-scale comparison (50 vehicles, 150 orders; {} eval instances, {} training episodes)",
        eval_instances.len(),
        cli.episodes
    );

    let mut all_rows = Vec::new();
    for spec in ModelSpec::comparison_lineup() {
        let mut model: Model =
            build_and_train(spec, &presets, &train_instance, cli.episodes, cli.seed);
        let rows = evaluate_many_threads(model.dispatcher(), &eval_instances, cli.threads);
        if let Some(mean) = mean_row(&rows) {
            println!(
                "  {:<10} NUV {:>5}  TC {:>10.1}  TTL {:>8.1} km  served {:>4}  \
                 rejected {:>3} (no-feasible {}, policy {}, commit {})",
                mean.algo,
                mean.nuv,
                mean.total_cost,
                mean.ttl,
                mean.served,
                mean.rejected,
                mean.rejections.no_feasible_vehicle,
                mean.rejections.policy_rejected,
                mean.rejections.infeasible_choice,
            );
            all_rows.push(mean);
        }
        all_rows.extend(rows);
    }

    println!("\n{}", report::render_table("Fig. 6 (all rows)", &all_rows));
    if let Some(path) = write_artifact("fig6.csv", &report::rows_to_csv(&all_rows)) {
        println!("wrote {}", path.display());
    }
    println!(
        "Expected shape (paper): Baseline 3 uses the fewest vehicles but a high TC; \
         Baseline 2 exhausts the fleet; graph DRL (DGN, ST-DDGN) beats all baselines \
         on TC, with ST-DDGN best."
    );
}
