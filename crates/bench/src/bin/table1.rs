//! **Table I** regenerator: DRL methods vs the exact optimum on tiny
//! instances (5 vehicles; 6, 7, 8, 10 orders): NUV, TC and wall time.
//!
//! ```text
//! cargo run -p dpdp-bench --release --bin table1 -- \
//!     [--quick] [--episodes N] [--threads N] [--scenario metro_disrupted]
//! ```
//!
//! Besides the printed table and `table1.csv`, the run is archived as
//! machine-readable `target/experiments/BENCH_table1.json` (NUV, TC, wall
//! time and epoch count per policy and for the exact solver; the header
//! carries the thread count, the `--scenario` name and, for
//! `metro_disrupted`, the disruption seed). The run exits 1 on any
//! non-finite metric.
//!
//! Under `--scenario metro_disrupted` a disrupted smoke episode rides along
//! as one more row (gates: finite metrics, ≥ 1% cancellations, ≥ 1
//! breakdown, and every stranded order re-dispatched or accounted for in
//! the rejection breakdown).
//!
//! The wall-time column is the paper's (DRL inference vs one exact solve)
//! and gates nothing; performance is tracked by the perf ledger
//! (`BENCHMARK.json`, `ledger/`).

use dpdp_bench::{
    bench_json, build_and_train, check_finite, write_artifact, BenchRecord, Cli, Scenario,
};
use dpdp_core::experiment::evaluate_pooled;
use dpdp_core::models::ModelSpec;
use dpdp_core::prelude::*;
use dpdp_net::TimeDelta;
use dpdp_rl::ModelKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `metro_disrupted` scenario smoke: one Baseline-1 episode on the
/// metro preset with seeded cancellations and breakdowns armed, watched by
/// an [`EvalProbe`]. Exits 1 unless the scenario is non-vacuous — at
/// least 1% of orders cancelled and at least one breakdown — and every
/// order ended in exactly one final state (served, or rejected with a
/// reason), i.e. all stranded orders were re-dispatched or accounted for.
fn disrupted_smoke(records: &mut Vec<BenchRecord>, cli: &Cli, pool: &Arc<dpdp_pool::ThreadPool>) {
    const FLEET: usize = 32;
    const ORDERS: usize = 240;
    println!("\n== disrupted metro scenario: {ORDERS} orders, {FLEET} vehicles ==");
    let (metro, disruptions) = Presets::metro_disrupted(cli.seed);
    let instance = metro.metro_instance(ORDERS, FLEET, 1);
    let sim = Simulator::builder(&instance)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(10.0)))
        .disruptions(disruptions)
        .seed(cli.seed)
        .thread_pool(Arc::clone(pool))
        .build()
        .expect("valid disrupted metro configuration");
    let mut probe = EvalProbe::default();
    let mut b1 = Baseline1;
    let start = Instant::now();
    let result = sim.run_observed(&mut b1, &mut [&mut probe]);
    let wall = start.elapsed().as_secs_f64();
    let m = &result.metrics;
    let record = BenchRecord {
        instance: format!("disrupted_k{FLEET}_b10"),
        algo: "Baseline1".to_string(),
        nuv: m.nuv,
        total_cost: m.total_cost,
        wall_secs: wall,
        epochs: probe.epochs,
    };
    check_finite(&record);
    println!(
        "NUV {}  TC {:.1}  served {}  cancelled {}  lost {}  breakdowns {}  wall {:.3} s",
        m.nuv,
        m.total_cost,
        m.served,
        m.rejections.cancelled,
        m.rejections.vehicle_lost,
        probe.breakdowns,
        wall
    );
    if m.rejections.cancelled * 100 < instance.num_orders() {
        eprintln!(
            "error: metro_disrupted is vacuous: {} cancellations over {} orders (< 1%)",
            m.rejections.cancelled,
            instance.num_orders()
        );
        std::process::exit(1);
    }
    if probe.breakdowns == 0 {
        eprintln!("error: metro_disrupted produced no breakdown");
        std::process::exit(1);
    }
    if m.served + m.rejections.total() != instance.num_orders() {
        eprintln!(
            "error: disrupted episode lost orders: served {} + rejected-by-reason {} != {}",
            m.served,
            m.rejections.total(),
            instance.num_orders()
        );
        std::process::exit(1);
    }
    records.push(record);
}

fn main() {
    let cli = Cli::parse(60, 1);
    let presets = cli.presets();
    let sizes = [6usize, 7, 8, 10];
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

    // One scoring pool for every evaluation episode (workers outlive runs).
    let pool = std::sync::Arc::new(dpdp_pool::ThreadPool::new(cli.threads));

    let mut csv = String::from("orders,algo,nuv,tc,wall_secs,optimal\n");
    let mut records: Vec<BenchRecord> = Vec::new();
    println!(
        "Table I: DRL vs exact optimum on tiny instances ({} scoring thread{})",
        cli.threads,
        if cli.threads == 1 { "" } else { "s" }
    );
    for &n in &sizes {
        let instance = presets.tiny_instance(n, cli.seed);
        println!("\n== {n} orders, 5 vehicles ==");
        println!(
            "{:<10} {:>5} {:>12} {:>12} {:>10}",
            "algo", "NUV", "TC", "wall(s)", "note"
        );
        for &spec in &specs {
            let mut model = build_and_train(spec, &presets, &instance, cli.episodes, cli.seed);
            let row = evaluate_pooled(model.dispatcher(), &instance, &pool);
            let record = BenchRecord::from_row(n.to_string(), &row);
            check_finite(&record);
            println!(
                "{:<10} {:>5} {:>12.2} {:>12.4} {:>10}",
                row.algo, row.nuv, row.total_cost, row.wall_secs, ""
            );
            csv.push_str(&format!(
                "{n},{},{},{:.3},{:.6},\n",
                row.algo, row.nuv, row.total_cost, row.wall_secs
            ));
            records.push(record);
        }
        let start = Instant::now();
        let solver = ExactSolver::with_time_limit(exact_budget);
        match solver.solve(&instance) {
            Some(sol) => {
                let wall = start.elapsed().as_secs_f64();
                let note = if sol.optimal { "optimal" } else { "timeout" };
                let record = BenchRecord {
                    instance: n.to_string(),
                    algo: "EXACT".to_string(),
                    nuv: sol.nuv,
                    total_cost: sol.total_cost,
                    wall_secs: wall,
                    epochs: 0,
                };
                check_finite(&record);
                println!(
                    "{:<10} {:>5} {:>12.2} {:>12.4} {:>10}",
                    "EXACT", sol.nuv, sol.total_cost, wall, note
                );
                csv.push_str(&format!(
                    "{n},EXACT,{},{:.3},{:.6},{}\n",
                    sol.nuv, sol.total_cost, wall, sol.optimal
                ));
                records.push(record);
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
    // Under --scenario metro_disrupted, the disrupted smoke episode and
    // its non-vacuity gates ride along in the same artifact.
    if cli.scenario == Scenario::MetroDisrupted {
        disrupted_smoke(&mut records, &cli, &pool);
    }

    if let Some(path) = write_artifact("table1.csv", &csv) {
        println!("\nwrote {}", path.display());
    }
    if let Some(path) = write_artifact("BENCH_table1.json", &bench_json("table1", &cli, &records)) {
        println!("wrote {}", path.display());
    }
    println!(
        "\nExpected shape (paper): graph models (DGN/ST-DDGN) match or beat DQN/AC; \
         exact achieves the lowest TC but orders of magnitude more wall time, \
         becoming intractable as orders grow."
    );
}
