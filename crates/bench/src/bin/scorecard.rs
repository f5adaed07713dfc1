//! **Scorecard**: the paper's three comparison experiments in one run.
//!
//! ```text
//! cargo run -p dpdp-bench --release --bin scorecard -- \
//!     [--quick] [--episodes N] [--instances N] [--seed N] [--threads N]
//! ```
//!
//! Three sections, in order, on one scoring pool:
//!
//! 1. **Table I** — DQN / AC / DGN / ST-DDGN against the exact optimum on
//!    tiny instances (5 vehicles; 6, 7, 8, 10 orders): NUV, TC and wall
//!    time (`table1.csv`). Each model trains on its instance for 60
//!    episodes.
//! 2. **Fig. 6** — the seven-method comparison lineup (DQN, AC, DGN,
//!    ST-DDGN, Baselines 1–3) on `--instances` large-scale instances (50
//!    vehicles, 150 orders; default 3): per-instance rows and their mean
//!    (`fig6.csv`).
//! 3. **Fig. 7** — the same lineup over the paper's 20 held-out
//!    industry-scale days (150 vehicles, full daily order stream), with
//!    each day's predicted STD matrix (`fig7.csv`).
//!
//! Fig. 6 and Fig. 7 share one lineup, trained once on the large-scale
//! training instance for 120 episodes. `--episodes N` sets the budget of
//! every section.
//!
//! Every row of every section is archived in
//! `target/experiments/BENCH_scorecard.json` (NUV, TC, wall time and epoch
//! count; the `instance` label names the section: `table1/6`, `fig6/0`,
//! `fig6/mean`, `fig7/day1`, …; the header's `episodes` is Table I's
//! budget). The run exits 1 on a non-finite metric in any row.
//!
//! The wall-time columns are the paper's (DRL inference vs one exact
//! solve) and gate nothing; performance is tracked by the perf ledger
//! (`BENCHMARK.json`, `ledger/`).

use dpdp_bench::{
    bench_json, build_and_train, check_finite, write_artifact, BenchRecord, Cli, Model,
};
use dpdp_core::experiment::mean_row;
use dpdp_core::models::ModelSpec;
use dpdp_core::prelude::*;
use dpdp_pool::ThreadPool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Table I's training budget per model and instance.
const TABLE1_EPISODES: usize = 60;
/// The Fig. 6 / Fig. 7 lineup's training budget.
const LINEUP_EPISODES: usize = 120;
/// Fig. 6's default number of evaluation instances.
const FIG6_INSTANCES: usize = 3;
/// Fig. 7's held-out test days.
const FIG7_DAYS: u64 = 20;

fn main() {
    let cli = Cli::parse(TABLE1_EPISODES, FIG6_INSTANCES);
    // The same arguments under the lineup's default: equal to
    // `cli.episodes` when `--episodes` is given, else `LINEUP_EPISODES`.
    let lineup_episodes = Cli::parse(LINEUP_EPISODES, FIG6_INSTANCES).episodes;
    let presets = cli.presets();
    // One scoring pool for every evaluation episode (workers outlive runs).
    let pool = Arc::new(ThreadPool::new(cli.threads));
    let mut records = Vec::new();

    table_one(&cli, &presets, &pool, &mut records);

    let train_instance = presets.large_instance(cli.seed);
    let mut lineup: Vec<(ModelSpec, Model)> = ModelSpec::comparison_lineup()
        .into_iter()
        .map(|spec| {
            let model = build_and_train(spec, &presets, &train_instance, lineup_episodes, cli.seed);
            (spec, model)
        })
        .collect();
    fig_six(
        &cli,
        &presets,
        &mut lineup,
        lineup_episodes,
        &pool,
        &mut records,
    );
    fig_seven(&presets, &mut lineup, lineup_episodes, &pool, &mut records);

    let json = bench_json("scorecard", &cli, &records);
    if let Some(path) = write_artifact("BENCH_scorecard.json", &json) {
        println!("\nwrote {}", path.display());
    }
}

/// Archives one row, exiting 1 first if any of its metrics is non-finite.
fn archive(records: &mut Vec<BenchRecord>, record: BenchRecord) {
    check_finite(&record);
    records.push(record);
}

/// Table I: DRL vs the exact optimum on tiny instances.
fn table_one(cli: &Cli, presets: &Presets, pool: &Arc<ThreadPool>, records: &mut Vec<BenchRecord>) {
    let specs = [
        ModelSpec::Dqn(ModelKind::Dqn),
        ModelSpec::ActorCritic,
        ModelSpec::Dqn(ModelKind::Dgn),
        ModelSpec::Dqn(ModelKind::StDdgn),
    ];
    // The paper's Gurobi runs took 300 s (6 orders) and 2818 s (7 orders)
    // and were intractable beyond; we cap our branch-and-bound likewise —
    // tighter under --quick, which doubles as the CI smoke budget.
    let exact_budget = Duration::from_secs(if cli.quick { 2 } else { 30 });

    let mut csv = String::from("orders,algo,nuv,tc,wall_secs,optimal\n");
    println!(
        "Table I: DRL vs exact optimum on tiny instances ({} scoring thread{})",
        cli.threads,
        if cli.threads == 1 { "" } else { "s" }
    );
    for n in [6usize, 7, 8, 10] {
        let instance = presets.tiny_instance(n, cli.seed);
        println!("\n== {n} orders, 5 vehicles ==");
        println!(
            "{:<10} {:>5} {:>12} {:>12} {:>10}",
            "algo", "NUV", "TC", "wall(s)", "note"
        );
        for spec in specs {
            let mut model = build_and_train(spec, presets, &instance, cli.episodes, cli.seed);
            let row = evaluate_pooled(model.dispatcher(), &instance, pool);
            archive(records, BenchRecord::from_row(format!("table1/{n}"), &row));
            println!(
                "{:<10} {:>5} {:>12.2} {:>12.4} {:>10}",
                row.algo, row.nuv, row.total_cost, row.wall_secs, ""
            );
            csv.push_str(&format!(
                "{n},{},{},{:.3},{:.6},\n",
                row.algo, row.nuv, row.total_cost, row.wall_secs
            ));
        }
        let start = Instant::now();
        match ExactSolver::with_time_limit(exact_budget).solve(&instance) {
            Some(sol) => {
                let wall = start.elapsed().as_secs_f64();
                let note = if sol.optimal { "optimal" } else { "timeout" };
                let record = BenchRecord {
                    instance: format!("table1/{n}"),
                    algo: "EXACT".to_string(),
                    nuv: sol.nuv,
                    total_cost: sol.total_cost,
                    wall_secs: wall,
                    epochs: 0,
                };
                archive(records, record);
                println!(
                    "{:<10} {:>5} {:>12.2} {:>12.4} {:>10}",
                    "EXACT", sol.nuv, sol.total_cost, wall, note
                );
                csv.push_str(&format!(
                    "{n},EXACT,{},{:.3},{:.6},{}\n",
                    sol.nuv, sol.total_cost, wall, sol.optimal
                ));
            }
            None => {
                println!(
                    "{:<10} {:>5} {:>12} {:>12} {:>10}",
                    "EXACT", "-", "-", "-", "infeasible"
                );
                csv.push_str(&format!("{n},EXACT,,,,false\n"));
            }
        }
    }
    if let Some(path) = write_artifact("table1.csv", &csv) {
        println!("\nwrote {}", path.display());
    }
    println!(
        "\nExpected shape (paper): graph models (DGN/ST-DDGN) match or beat DQN/AC; \
         exact achieves the lowest TC but orders of magnitude more wall time, \
         becoming intractable as orders grow."
    );
}

/// Fig. 6: the lineup on `--instances` large-scale instances (50 vehicles,
/// 150 orders). Every episode streams its counts through an [`EvalProbe`]
/// with the simulator's per-order and per-vehicle logs switched off.
fn fig_six(
    cli: &Cli,
    presets: &Presets,
    lineup: &mut [(ModelSpec, Model)],
    episodes: usize,
    pool: &Arc<ThreadPool>,
    records: &mut Vec<BenchRecord>,
) {
    let eval_instances: Vec<Instance> = (0..cli.instances)
        .map(|i| presets.large_test_instance(cli.seed + 1000 + i as u64))
        .collect();
    println!(
        "\nFig. 6: large-scale comparison (50 vehicles, 150 orders; {} eval instances, {} training episodes)",
        eval_instances.len(),
        episodes
    );

    let mut all_rows = Vec::new();
    for (_, model) in lineup.iter_mut() {
        let rows: Vec<EvalRow> = eval_instances
            .iter()
            .map(|instance| evaluate_pooled(model.dispatcher(), instance, pool))
            .collect();
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
            archive(records, BenchRecord::from_row("fig6/mean", &mean));
            all_rows.push(mean);
        }
        for (i, row) in rows.iter().enumerate() {
            archive(records, BenchRecord::from_row(format!("fig6/{i}"), row));
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

/// Fig. 7: the lineup across the 20 held-out industry-scale test days,
/// each model given the day's predicted STD matrix.
fn fig_seven(
    presets: &Presets,
    lineup: &mut [(ModelSpec, Model)],
    episodes: usize,
    pool: &Arc<ThreadPool>,
    records: &mut Vec<BenchRecord>,
) {
    println!(
        "\nFig. 7: industry-scale comparison over {FIG7_DAYS} test days ({episodes} training episodes)"
    );
    let mut csv = String::from("day,algo,nuv,tc,ttl,served,rejected\n");
    let mut sums: Vec<(f64, f64)> = vec![(0.0, 0.0); lineup.len()]; // (nuv, tc)
    for day in 0..FIG7_DAYS {
        let instance = presets.industry_instance(day);
        print!("Day {:>2} ({} orders):", day + 1, instance.num_orders());
        for (i, (spec, model)) in lineup.iter_mut().enumerate() {
            model.set_prediction(Some(presets.test_prediction(day, 4)));
            let row = evaluate_pooled(model.dispatcher(), &instance, pool);
            archive(
                records,
                BenchRecord::from_row(format!("fig7/day{}", day + 1), &row),
            );
            print!("  {}={}|{:.0}", spec.name(), row.nuv, row.total_cost);
            sums[i].0 += row.nuv as f64;
            sums[i].1 += row.total_cost;
            csv.push_str(&format!(
                "{},{},{},{:.3},{:.3},{},{}\n",
                day + 1,
                row.algo,
                row.nuv,
                row.total_cost,
                row.ttl,
                row.served,
                row.rejected
            ));
        }
        println!();
    }

    println!("\nAverages over {FIG7_DAYS} days (NUV | TC):");
    for ((spec, _), (nuv, tc)) in lineup.iter().zip(&sums) {
        println!(
            "  {:<10} {:>7.2} | {:>10.1}",
            spec.name(),
            nuv / FIG7_DAYS as f64,
            tc / FIG7_DAYS as f64
        );
    }
    if let Some(path) = write_artifact("fig7.csv", &csv) {
        println!("wrote {}", path.display());
    }
    println!(
        "Expected shape (paper): DRL methods use fewer vehicles than Baseline 1 \
         (84.1 vs 91.8 on average there); ST-DDGN achieves the lowest TC on most days \
         (33.2k vs 36.8k for Baseline 1); Baseline 2 runs out the whole fleet."
    );
}
