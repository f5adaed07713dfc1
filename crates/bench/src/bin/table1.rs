//! **Table I** regenerator: DRL methods vs the exact optimum on tiny
//! instances (5 vehicles; 6, 7, 8, 10 orders): NUV, TC and wall time.
//!
//! ```text
//! cargo run -p dpdp-bench --release --bin table1 \
//!     [--quick] [--episodes N] [--threads N]
//! ```
//!
//! Besides the printed table and `table1.csv`, the run is archived as
//! machine-readable `target/experiments/BENCH_table1.json` (wall time per
//! policy, thread count, epoch counts, plus `sweep_n8`/`sweep_n16` rows
//! timing the naive vs incremental Algorithm 2 insertion sweep,
//! `metro_sweep_k*` rows timing the metro-scale `B x K` decision-epoch
//! sweep for the shipped SoA cached evaluator against the AoS reference
//! layout and the naive baseline, plus `metro_k*` rows timing
//! region-sharded dispatch at every `--shards` count) so the perf
//! trajectory across PRs is recorded; the header also
//! carries the `--scenario` name and, for `metro_disrupted`, the
//! disruption seed, so rows stay comparable across scenarios. Under
//! `--scenario metro_disrupted` a disrupted smoke episode rides along
//! (gates: finite metrics, ≥ 1% cancellations, ≥ 1 breakdown, and every
//! stranded order re-dispatched or accounted for in the rejection
//! breakdown). Under `--scenario megacity` the regular lineup is skipped
//! entirely and the run times one 10 000-vehicle `Presets::megacity`
//! episode flat (`shards=1`) vs hierarchically sharded
//! (`ShardConfig::hierarchical` + demand-fed re-partitioning), asserting
//! the episodes bit-identical — across the two layouts *and* across
//! thread counts — and exiting 1 unless the hierarchical run is ≥ 5×
//! faster. The CI bench-smoke job uploads the JSON and fails on any
//! panic, any non-finite metric, an incremental sweep slower than the
//! naive reference at n >= 8 stops, a metro `B x K` cached sweep under 3×
//! the naive baseline or more than 10% behind the AoS reference layout,
//! a `shards=4` metro episode slower than `shards=1`, or a megacity ratio
//! under 5×.

use dpdp_bench::{
    bench_json, build_and_train, check_finite, insertion_fixture, insertion_fixture_with_probes,
    write_artifact, BenchRecord, Cli, Scenario,
};
use dpdp_core::experiment::evaluate_pooled;
use dpdp_core::models::ModelSpec;
use dpdp_core::prelude::*;
use dpdp_net::TimeDelta;
use dpdp_rl::ModelKind;
use dpdp_routing::{
    sweep_best, sweep_best_aos, AosScheduleCache, PlannerMode, RoutePlanner, ScheduleCache,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Best-of-`reps` wall time (seconds) of one call to `f`, each sample
/// averaging `inner` back-to-back calls to defeat timer granularity.
fn best_wall_secs(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..inner {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / inner as f64);
    }
    best
}

/// Times the Algorithm 2 insertion sweep — naive reference vs incremental
/// evaluator — on the loose ring fixture at route lengths n = 8 and 16
/// stops, appending one archived record per (n, evaluator).
///
/// This is the CI perf gate for the O(n³) -> O(n²) rewrite: the run exits
/// with status 1 if the incremental path is slower than the naive path at
/// any n >= 8 (the measured gap is several-fold, so a genuine regression —
/// not timer noise — is required to trip it).
fn sweep_walltime(records: &mut Vec<BenchRecord>) {
    println!("\n== insertion sweep: naive vs incremental ==");
    println!("{:<10} {:>24} {:>14}", "stops", "algo", "wall(us)");
    for &orders_on_route in &[4usize, 8] {
        let (instance, view) = insertion_fixture(orders_on_route);
        let probe = instance.orders().last().expect("fixture has orders");
        let n = 2 * orders_on_route;
        let incremental = RoutePlanner::new(&instance.network, &instance.fleet, instance.orders());
        let naive = RoutePlanner::with_mode(
            &instance.network,
            &instance.fleet,
            instance.orders(),
            PlannerMode::Naive,
        );
        let wall_incremental = best_wall_secs(30, 20, || {
            std::hint::black_box(incremental.plan(&view, probe));
        });
        let wall_naive = best_wall_secs(30, 20, || {
            std::hint::black_box(naive.plan(&view, probe));
        });
        for (algo, wall) in [
            ("insertion_naive", wall_naive),
            ("insertion_incremental", wall_incremental),
        ] {
            let record = BenchRecord {
                instance: format!("sweep_n{n}"),
                algo: algo.to_string(),
                nuv: 0,
                total_cost: 0.0,
                wall_secs: wall,
                epochs: 0,
            };
            check_finite(&record);
            println!("{:<10} {:>24} {:>14.3}", n, algo, wall * 1e6);
            records.push(record);
        }
        if n >= 8 && wall_incremental > wall_naive {
            eprintln!(
                "error: incremental insertion sweep slower than naive at \
                 n = {n} stops ({:.3} us vs {:.3} us)",
                wall_incremental * 1e6,
                wall_naive * 1e6
            );
            std::process::exit(1);
        }
    }
}

/// The metro-scale `B × K` sweep ratchet: the decision-epoch hot path —
/// `K` per-vehicle schedule caches rebuilt arena-style, each swept by `B`
/// distinct probe orders — timed for the shipped SoA cached evaluator
/// ([`ScheduleCache::rebuild`] + [`sweep_best`]), the retained AoS
/// reference layout (build + sweep, the same shape), and the naive
/// Algorithm 2 baseline that re-simulates every candidate (whose one
/// winner materialization per probe is noise next to its enumeration).
///
/// Two gates, either failure exits 1, so CI ratchets the hot path:
/// * the shipped cached sweep must be at least
///   `METRO_SWEEP_MIN_SPEEDUP`× faster than the naive baseline on the
///   full `B × K` workload (the pre-cache per-epoch cost this repo started
///   from — regressions that eat the incremental win trip this first);
/// * it must also stay within `METRO_SWEEP_AOS_BAND`× of the AoS
///   reference sweep, so the SoA layout can never quietly regress behind
///   the very reference it is parity-tested against (the band absorbs
///   shared-runner timing noise; the measured margin is the SoA path
///   *ahead* by ~10–15%).
///
/// All three walls are archived in `BENCH_table1.json` as
/// `metro_sweep_k{K}_b{B}` rows for cross-PR trajectory tracking.
fn metro_sweep_walltime(records: &mut Vec<BenchRecord>, cli: &Cli) {
    const B: usize = 10;
    const ORDERS_ON_ROUTE: usize = 8; // 16-stop base routes
    const REPS: usize = 5;
    const METRO_SWEEP_MIN_SPEEDUP: f64 = 3.0;
    const METRO_SWEEP_AOS_BAND: f64 = 1.10;
    let k = if cli.quick { 32 } else { 256 };
    println!("\n== metro B x K sweep: {k} caches x {B} probes, 16-stop routes ==");
    let (instance, view) = insertion_fixture_with_probes(ORDERS_ON_ROUTE, B);
    let net = &instance.network;
    let fleet = &instance.fleet;
    let orders = instance.orders();
    let probes: Vec<_> = orders.iter().rev().take(B).collect();
    let naive = RoutePlanner::with_mode(net, fleet, orders, PlannerMode::Naive);
    let mut soa = ScheduleCache::default();
    let (mut wall_naive, mut wall_aos, mut wall_soa) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        // Interleaved reps so machine-load drift cannot bias one evaluator.
        wall_naive = wall_naive.min(best_wall_secs(1, 1, || {
            for _ in 0..k {
                for probe in &probes {
                    std::hint::black_box(naive.plan(&view, probe));
                }
            }
        }));
        wall_aos = wall_aos.min(best_wall_secs(1, 1, || {
            for _ in 0..k {
                let cache = AosScheduleCache::build(&view, net, fleet, orders);
                for probe in &probes {
                    std::hint::black_box(sweep_best_aos(&cache, &view, probe, net, fleet, orders));
                }
            }
        }));
        wall_soa = wall_soa.min(best_wall_secs(1, 1, || {
            for _ in 0..k {
                soa.rebuild(&view, net, fleet, orders);
                for probe in &probes {
                    std::hint::black_box(sweep_best(&soa, &view, probe, net, fleet, orders));
                }
            }
        }));
    }
    println!("{:<24} {:>14}", "algo", "wall(ms)");
    for (algo, wall) in [
        ("insertion_naive", wall_naive),
        ("aos_cached_sweep", wall_aos),
        ("soa_cached_sweep", wall_soa),
    ] {
        let record = BenchRecord {
            instance: format!("metro_sweep_k{k}_b{B}"),
            algo: algo.to_string(),
            nuv: 0,
            total_cost: 0.0,
            wall_secs: wall,
            epochs: 0,
        };
        check_finite(&record);
        println!("{:<24} {:>14.3}", algo, wall * 1e3);
        records.push(record);
    }
    let speedup = wall_naive / wall_soa;
    println!(
        "speedup vs naive: {speedup:.2}x (gate: >= {METRO_SWEEP_MIN_SPEEDUP:.0}x)   \
         vs AoS reference: {:.2}x (gate: <= {METRO_SWEEP_AOS_BAND:.2}x of AoS)",
        wall_aos / wall_soa
    );
    if !speedup.is_finite() || speedup < METRO_SWEEP_MIN_SPEEDUP {
        eprintln!(
            "error: metro B x K cached sweep below the \
             {METRO_SWEEP_MIN_SPEEDUP:.0}x ratchet vs the naive Algorithm 2 \
             baseline ({:.3} ms naive vs {:.3} ms cached, {speedup:.2}x)",
            wall_naive * 1e3,
            wall_soa * 1e3
        );
        std::process::exit(1);
    }
    if wall_soa > wall_aos * METRO_SWEEP_AOS_BAND {
        eprintln!(
            "error: SoA cached sweep regressed behind the AoS reference layout \
             on the metro B x K workload ({:.3} ms SoA vs {:.3} ms AoS, \
             band {METRO_SWEEP_AOS_BAND:.2}x)",
            wall_soa * 1e3,
            wall_aos * 1e3
        );
        std::process::exit(1);
    }
}

/// Region-sharded dispatch on the metro preset: one Baseline-1 episode per
/// `--shards` count (industry-scale fleet of 256 ≥ the gate's 32-vehicle
/// floor, 10-minute buffered epochs so the `B x K` sweep dominates),
/// interleaved best-of-`reps` to defeat load drift, metrics asserted
/// bit-identical across shard counts, wall times archived.
///
/// This is the CI perf gate for the partition → score → merge pipeline:
/// the run exits with status 1 if metrics diverge between shard counts, or
/// if `shards=4` is slower than `shards=1` (when both were requested).
fn metro_shard_walltime(
    records: &mut Vec<BenchRecord>,
    cli: &Cli,
    pool: &Arc<dpdp_pool::ThreadPool>,
) {
    const FLEET: usize = 256;
    const ORDERS: usize = 1600;
    const REPS: usize = 5;
    println!("\n== region-sharded dispatch: metro preset, {FLEET} vehicles ==");
    println!(
        "{:<14} {:>8} {:>12} {:>14}",
        "shards", "NUV", "TC", "wall(ms)"
    );
    let metro = Presets::metro(cli.seed);
    let instance = metro.metro_instance(ORDERS, FLEET, 1);
    let mut walls: Vec<f64> = vec![f64::INFINITY; cli.shards.len()];
    let mut results: Vec<Option<EpisodeResult>> = vec![None; cli.shards.len()];
    for _ in 0..REPS {
        // Interleave the shard counts inside each rep so slow drift in
        // machine load cannot bias one configuration.
        for (slot, &shards) in cli.shards.iter().enumerate() {
            let sim = Simulator::builder(&instance)
                .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(10.0)))
                .sharding(ShardConfig::flat(shards).expect("positive shard count"))
                .thread_pool(Arc::clone(pool))
                .build()
                .expect("valid metro configuration");
            let mut b1 = Baseline1;
            let start = Instant::now();
            let result = sim.run(&mut b1);
            walls[slot] = walls[slot].min(start.elapsed().as_secs_f64());
            match &results[slot] {
                None => results[slot] = Some(result),
                Some(prev) => assert_eq!(
                    *prev, result,
                    "episode diverged across repetitions at {shards} shards"
                ),
            }
        }
    }
    for ((&shards, &wall), result) in cli.shards.iter().zip(&walls).zip(&results) {
        let result = result.as_ref().expect("at least one rep ran");
        if let Some(reference) = &results[0] {
            if *result != *reference {
                eprintln!(
                    "error: metro episode at shards={shards} diverged from shards={}",
                    cli.shards[0]
                );
                std::process::exit(1);
            }
        }
        let record = BenchRecord {
            instance: format!("metro_k{FLEET}_b10"),
            algo: format!("shards{shards}"),
            nuv: result.metrics.nuv,
            total_cost: result.metrics.total_cost,
            wall_secs: wall,
            epochs: 0,
        };
        check_finite(&record);
        println!(
            "{:<14} {:>8} {:>12.1} {:>14.3}",
            format!("shards{shards}"),
            result.metrics.nuv,
            result.metrics.total_cost,
            wall * 1e3
        );
        records.push(record);
    }
    let wall_of = |count: usize| {
        cli.shards
            .iter()
            .position(|&s| s == count)
            .map(|slot| walls[slot])
    };
    if let (Some(w1), Some(w4)) = (wall_of(1), wall_of(4)) {
        if w4 > w1 {
            eprintln!(
                "error: sharded dispatch slower than the flat scan on the metro \
                 preset at {FLEET} vehicles ({:.3} ms at shards=4 vs {:.3} ms at \
                 shards=1)",
                w4 * 1e3,
                w1 * 1e3
            );
            std::process::exit(1);
        }
    }
}

/// The `megacity` scenario: one Baseline-1 episode on the
/// `Presets::megacity` workload — 10 000 vehicles, orders sampled from a
/// ~100k-order generated day, 30-minute buffered epochs so every flush is
/// a genuinely large `B x K` sweep — timed flat (`shards=1`) against the
/// hierarchical two-level `ShardConfig` (64 regions × 2 cells,
/// same-region escalation, demand-fed re-partitioning every 4 flushes).
///
/// Three gates, any failure exits 1:
/// * the hierarchical episode must be **bit-identical** to the flat scan
///   (the sharding determinism contract at industry scale);
/// * the hierarchical episode must also be bit-identical between 1 scoring
///   thread and the `--threads` pool (fixed seed ⇒ same episode across
///   thread counts, re-partitioning included);
/// * hierarchical must be at least `MEGACITY_MIN_SPEEDUP`× faster than
///   flat wall-time (the ROADMAP scale-ceiling gate).
fn megacity_shard_walltime(
    records: &mut Vec<BenchRecord>,
    cli: &Cli,
    pool: &Arc<dpdp_pool::ThreadPool>,
) {
    const FLEET: usize = 10_000;
    const ORDERS: usize = 4_000;
    const REPS: usize = 2;
    const MEGACITY_MIN_SPEEDUP: f64 = 5.0;
    println!("\n== megacity: hierarchical sharding vs flat scan, {FLEET} vehicles ==");
    let megacity = Presets::megacity(cli.seed);
    let instance = megacity.megacity_instance(ORDERS, FLEET, 1);
    let hier = ShardConfig::hierarchical(64, 2)
        .expect("positive region/cell counts")
        .escalation(2)
        .repartition(RepartitionPolicy::periodic(4))
        .expect("positive cadence");
    let configs: [(&str, ShardConfig); 2] = [
        ("flat1", ShardConfig::flat(1).expect("one shard")),
        ("hier64x2", hier.clone()),
    ];
    let buffering = BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0));
    let mut walls = [f64::INFINITY; 2];
    let mut results: [Option<EpisodeResult>; 2] = [None, None];
    for _ in 0..REPS {
        // Interleaved reps: machine-load drift cannot bias one layout.
        for (slot, (label, config)) in configs.iter().enumerate() {
            let sim = Simulator::builder(&instance)
                .buffering(buffering)
                .sharding(config.clone())
                .seed(cli.seed)
                .thread_pool(Arc::clone(pool))
                .build()
                .expect("valid megacity configuration");
            let mut b1 = Baseline1;
            let start = Instant::now();
            let result = sim.run(&mut b1);
            walls[slot] = walls[slot].min(start.elapsed().as_secs_f64());
            match &results[slot] {
                None => results[slot] = Some(result),
                Some(prev) => assert_eq!(
                    *prev, result,
                    "megacity episode diverged across repetitions under {label}"
                ),
            }
        }
    }
    let flat = results[0].take().expect("flat rep ran");
    let sharded = results[1].take().expect("hierarchical rep ran");
    if flat != sharded {
        eprintln!("error: hierarchical megacity episode diverged from the flat scan");
        std::process::exit(1);
    }
    // Thread-count bit-identity of the sharded episode: one serial run
    // against the pooled result (fixed seed ⇒ same episode everywhere).
    let serial = Simulator::builder(&instance)
        .buffering(buffering)
        .sharding(hier)
        .seed(cli.seed)
        .num_threads(1)
        .build()
        .expect("valid serial megacity configuration")
        .run(&mut Baseline1);
    if serial != sharded {
        eprintln!(
            "error: hierarchical megacity episode diverged between 1 and {} scoring threads",
            cli.threads
        );
        std::process::exit(1);
    }
    println!(
        "{:<14} {:>8} {:>12} {:>12}",
        "layout", "NUV", "TC", "wall(s)"
    );
    for ((label, _), (wall, result)) in configs.iter().zip(walls.iter().zip([&flat, &sharded])) {
        let record = BenchRecord {
            instance: format!("megacity_k{FLEET}_b30"),
            algo: label.to_string(),
            nuv: result.metrics.nuv,
            total_cost: result.metrics.total_cost,
            wall_secs: *wall,
            epochs: 0,
        };
        check_finite(&record);
        println!(
            "{:<14} {:>8} {:>12.1} {:>12.3}",
            label, result.metrics.nuv, result.metrics.total_cost, wall
        );
        records.push(record);
    }
    let speedup = walls[0] / walls[1];
    println!("speedup: {speedup:.2}x (gate: >= {MEGACITY_MIN_SPEEDUP:.0}x)");
    if !speedup.is_finite() || speedup < MEGACITY_MIN_SPEEDUP {
        eprintln!(
            "error: hierarchical sharding below the {MEGACITY_MIN_SPEEDUP:.0}x megacity gate: \
             {:.3} s flat vs {:.3} s sharded ({speedup:.2}x)",
            walls[0], walls[1]
        );
        std::process::exit(1);
    }
}

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

    // The megacity gate stands alone: a 10k-vehicle flat-scan episode
    // dwarfs the whole Table I lineup, so the scenario runs only the
    // hierarchical-vs-flat stage and archives it under the same bench name.
    if cli.scenario == Scenario::Megacity {
        let mut records: Vec<BenchRecord> = Vec::new();
        megacity_shard_walltime(&mut records, &cli, &pool);
        if let Some(path) =
            write_artifact("BENCH_table1.json", &bench_json("table1", &cli, &records))
        {
            println!("wrote {}", path.display());
        }
        return;
    }

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
    // Insertion-sweep wall times ride along in the same artifact (and gate
    // the incremental evaluator against the naive reference).
    sweep_walltime(&mut records);
    // The metro-scale B x K sweep ratchet: shipped SoA cached evaluator vs
    // the AoS reference layout and the naive Algorithm 2 baseline.
    metro_sweep_walltime(&mut records, &cli);
    // Region-sharded dispatch wall times per `--shards` count (and the
    // shards=4 vs shards=1 gate on the metro preset).
    metro_shard_walltime(&mut records, &cli, &pool);
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
