//! The perf ledger: one command, seven named workloads, end-to-end and
//! per-layer metrics. `BENCHMARK.json` at the repository root is the
//! contract (rendered from `spec.rs`); `README.md` beside this package is
//! the glossary.
//!
//! ```text
//! ledger --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON result line
//! ledger [--seed N] [--seconds S] [--workload NAME]          every workload, untraced then traced, each in a fresh child process
//! ledger --check-repeat [--seed N] [--seconds S] [--workload NAME]   two sets of runs, compared
//! ```
//!
//! # API surface
//!
//! The ledger measures the shipping path from outside and calls only the
//! public items below — no `run_reference`, `dpdp_routing::aos`,
//! `PlannerMode::Naive`, `q_values_batch_f32`, and nothing from
//! `dpdp_bench` — so the reference twins can be retired without touching
//! this package:
//!
//! * `dpdp_core`: `Presets::{paper, metro, megacity, dataset, metro_instance,
//!   megacity_instance, large_instance, test_prediction, train_prediction}`,
//!   `models::dqn_agent`
//! * `dpdp_data`: `Dataset::{config, sampled_instance, day_orders, grid,
//!   factory_index}`, `StScorer::new`
//! * `dpdp_sim`: `Simulator::{builder, run, run_observed, serve,
//!   serve_observed}`, `SimulatorBuilder::{buffering, sharding, seed,
//!   thread_pool, build}`, `ShardConfig::{default, flat, hierarchical,
//!   escalation, repartition, num_shards, policy}`,
//!   `RepartitionPolicy::periodic`, `BufferingMode`, the `Dispatcher` and
//!   `SimObserver` traits, `DecisionBatch::len`, `EpochInfo`, `ShardStats`,
//!   `DecisionRecord`, `Decision::is_assigned`, `EpisodeResult`,
//!   `EpisodeMetrics`, `RejectionCounts::total`, `StreamCommand`,
//!   `DecisionReason`
//! * `dpdp_rl`: `train`, `TrainerConfig::new`, `DqnAgent::{set_training,
//!   set_prediction}`, `ModelKind::StDdgn`, `AgentConfig::new`,
//!   `StateBuilder::{new, with_scorer, set_prediction, build}`,
//!   `QNetwork::{new, forward, q_values, q_values_batch}`, `QNetworkConfig`,
//!   `StateSnapshot`
//! * `dpdp_nn`: `Tensor::{from_vec, matmul}`, `ParamStore::{new,
//!   zero_grads}`, `Graph::{new, sum_all, backward}`
//! * `dpdp_baselines`: `Baseline1`
//! * `dpdp_routing`: `RoutePlanner::{new, plan, provably_infeasible}`,
//!   `ScheduleCache::{build, rebuild}`, `sweep_best`, `simulate_schedule`,
//!   `VehicleView::idle_at_depot`, `PlannerOutput`, `BestInsertion`
//! * `dpdp_net`: `RoadNetwork::{nodes, num_nodes, distances_from}`,
//!   `FleetConfig::travel_times_secs`, `ShardMap::{build, build_weighted}`,
//!   `Instance`, `Order::new`, ids and time types
//! * `dpdp_pool`: `ThreadPool::{new, par_map, scope}`, `Scope::spawn`
//! * `dpdp_server`: `DecisionServer::{bind, spawn}`, `ServerConfig`,
//!   `ServerHandle::{addr, stats, shutdown}`, `ServeClient::{connect, hello,
//!   resume, order, flush, drain, next_msg, collect_episode}`,
//!   `token_from_ok_detail`, `ServerMsg`, `ClientError`, `WireDecision`,
//!   `SessionSpec`, `preset::{build_instance, build_policy, shard_config}`,
//!   `proto::{parse_command, format_decision, parse_server_msg}`,
//!   `journal::{JournalStore, Journal::append}`

#![forbid(unsafe_code)]

mod harness;
mod inproc;
mod json;
mod kernels;
mod procfs;
mod serve;
mod spec;
mod stats;
mod trace;

use harness::{Outcome, RunArgs};
use inproc::SimKind;
use json::Value;
use spec::{Better, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage:
  ledger --workload NAME --seed N --seconds S --trace 0|1
      one run in this process; the last stdout line is the JSON result
  ledger [--seed N] [--seconds S] [--workload NAME]
      every workload (or NAME), untraced then traced, each in a fresh child
  ledger --check-repeat [--seed N] [--seconds S] [--workload NAME]
      two sets of three untraced runs per workload, alternating, and two
      traced runs; exit 1 if an end-to-end median differs between the sets
      by more than its bound, or a decision-quality metric or sim.* count
      differs at all";

struct Cli {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    check_repeat: bool,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("ledger: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_cli(args: &[String]) -> Cli {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: None,
        check_repeat: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> &String {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("flag `{name}` needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload");
                cli.workload = Some(spec::workload(name).unwrap_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    usage_error(&format!(
                        "unknown workload `{name}`; one of: {}",
                        names.join(", ")
                    ))
                }));
            }
            "--seed" => {
                cli.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_error("`--seed` needs a whole number"));
            }
            "--seconds" => {
                cli.seconds = match value("--seconds").parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= 60.0 => s,
                    _ => usage_error("`--seconds` needs a number in (0, 60]"),
                };
            }
            "--trace" => {
                cli.trace = Some(match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error("`--trace` takes 0 or 1"),
                });
            }
            "--check-repeat" => cli.check_repeat = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag `{other}`")),
        }
    }
    cli
}

fn run_workload(workload: &'static Workload, args: &RunArgs) -> Outcome {
    match workload.name {
        "campus_infer" => inproc::run_sim(SimKind::CampusInfer, workload, args),
        "campus_infer_b10" => inproc::run_sim(SimKind::CampusInferB10, workload, args),
        "campus_train" => inproc::run_train(workload, args),
        "metro_b1" => inproc::run_sim(SimKind::MetroB1, workload, args),
        "megacity_b1" => inproc::run_sim(SimKind::MegacityB1, workload, args),
        "serve_closed" => serve::run(false, workload, args),
        "serve_journal" => serve::run(true, workload, args),
        other => unreachable!("workload `{other}` is in WORKLOADS but has no runner"),
    }
}

/// `(name, unit)` of every metric a run with this `trace` setting reports.
fn reported_metrics(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// A per-layer metric the workload does not exercise reads 0; an
/// end-to-end metric that is missing or not finite fails the run.
fn result_json(outcome: &mut Outcome, trace: bool) -> Value {
    let mut metrics = Vec::new();
    for (name, unit) in reported_metrics(trace) {
        let value = match outcome.get(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                outcome.problem(format!("metric `{name}` is not finite ({v})"));
                0.0
            }
            None if trace => 0.0,
            None => {
                outcome.problem(format!("metric `{name}` was not measured"));
                0.0
            }
        };
        metrics.push((
            name.to_string(),
            Value::Obj(vec![
                ("value".to_string(), Value::Num(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ]),
        ));
    }
    Value::Obj(vec![
        ("correct".to_string(), Value::Bool(outcome.correct())),
        (
            "attempted".to_string(),
            Value::Num(outcome.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Value::Num(outcome.failed as f64)),
        ("metrics".to_string(), Value::Obj(metrics)),
    ])
}

/// One run in this process (the driver's entry point).
fn run_single(workload: &'static Workload, args: &RunArgs) -> ExitCode {
    let mut outcome = run_workload(workload, args);
    let result = result_json(&mut outcome, args.trace);
    for (name, unit) in reported_metrics(args.trace) {
        let Some(value) = outcome.get(name) else {
            continue;
        };
        let detail = outcome
            .summaries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| {
                format!(
                    "  [raw: median {:.6}, q1 {:.6}, q3 {:.6}, n {}]",
                    s.median, s.q1, s.q3, s.n
                )
            })
            .unwrap_or_default();
        println!(
            "{:<20} {name:<36} {value:>16.6} {unit}{detail}",
            workload.name
        );
    }
    for problem in &outcome.problems {
        eprintln!("ledger: {}: FAILED CHECK: {problem}", workload.name);
    }
    println!("{result}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a fresh child process (so set-up time and peak
/// RSS are its own) and returns its parsed result line.
fn run_child(workload: &Workload, cli: &Cli, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = match stdout.trim_end().rsplit_once('\n') {
        Some((body, last)) => (body, last),
        None => ("", stdout.trim_end()),
    };
    println!("{body}");
    let result = json::parse(last)
        .ok_or_else(|| format!("{}: the child printed no result line", workload.name))?;
    if !output.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "{} (trace {}): run failed or incorrect ({})",
            workload.name, trace as u8, output.status
        ));
    }
    Ok(result)
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The workloads a whole-set invocation covers: `--workload NAME`, or all.
fn selected(cli: &Cli) -> impl Iterator<Item = &'static Workload> + '_ {
    WORKLOADS
        .iter()
        .filter(|w| cli.workload.is_none_or(|only| only.name == w.name))
}

/// Every selected workload untraced, then traced.
fn run_set(cli: &Cli, failures: &mut Vec<String>) {
    for w in selected(cli) {
        for trace in [false, true] {
            if let Err(e) = run_child(w, cli, trace) {
                failures.push(e);
            }
        }
    }
}

/// Untraced runs per set and workload in `--check-repeat`.
const REPEAT_RUNS: usize = 3;

/// Two sets of runs of the same code, compared under the ledger's own
/// bounds the way the benchmark driver compares two commits: per workload
/// the untraced runs alternate between the sets (so drift of the machine
/// over the minutes this takes falls on both alike) and each set's median
/// is what must agree; the traced runs' `sim.*` counts must be identical.
fn check_repeat(cli: &Cli, failures: &mut Vec<String>) {
    for w in selected(cli) {
        let mut sets: [Vec<Value>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * REPEAT_RUNS {
            match run_child(w, cli, false) {
                Ok(result) => sets[i % 2].push(result),
                Err(e) => failures.push(e),
            }
        }
        for m in &END_TO_END {
            let values = |set: &[Value]| -> Vec<f64> {
                set.iter().filter_map(|r| metric_value(r, m.name)).collect()
            };
            let (xs, ys) = (values(&sets[0]), values(&sets[1]));
            if xs.is_empty() || ys.is_empty() {
                continue;
            }
            let (x, y) = (stats::median(&xs), stats::median(&ys));
            let ok = if m.exact {
                xs.iter().chain(&ys).all(|v| v.to_bits() == x.to_bits())
            } else {
                (y - x).abs() / x.abs() <= m.bound
            };
            let worse = match m.better {
                Better::Lower => y > x,
                Better::Higher => y < x,
            };
            println!(
                "repeat {:<18} {:<18} {x:>14.6} -> {y:>14.6}  {:+.2}% ({}){}",
                w.name,
                m.name,
                (y - x) / x.abs() * 100.0,
                if worse { "worse" } else { "not worse" },
                if ok { "" } else { "  <-- OUTSIDE BOUND" },
            );
            if !ok {
                failures.push(format!("{}: {} moved {x} -> {y}", w.name, m.name));
            }
        }
        let mut traced = || run_child(w, cli, true).map_err(|e| failures.push(e)).ok();
        if let (Some(a), Some(b)) = (traced(), traced()) {
            for m in PER_LAYER.iter().filter(|m| m.unit == "count") {
                let (x, y) = (metric_value(&a, m.name), metric_value(&b, m.name));
                if x.map(f64::to_bits) != y.map(f64::to_bits) {
                    failures.push(format!("{}: count {} moved {x:?} -> {y:?}", w.name, m.name));
                }
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args);
    if let Some(trace) = cli.trace {
        if cli.check_repeat {
            usage_error("`--check-repeat` runs whole sets; drop `--trace`");
        }
        let Some(workload) = cli.workload else {
            usage_error("`--trace` needs `--workload`");
        };
        let run = RunArgs {
            seed: cli.seed,
            seconds: cli.seconds,
            trace,
        };
        return run_single(workload, &run);
    }

    let mut failures = Vec::new();
    if cli.check_repeat {
        check_repeat(&cli, &mut failures);
    } else {
        run_set(&cli, &mut failures);
    }
    for failure in &failures {
        eprintln!("ledger: FAIL: {failure}");
    }
    if failures.is_empty() {
        println!("ledger: all runs correct");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outcome(trace: bool) -> Outcome {
        let mut outcome = Outcome {
            attempted: 1186,
            ..Outcome::default()
        };
        for (i, (name, _)) in reported_metrics(trace).into_iter().enumerate() {
            outcome.set(name, 1.0 + i as f64 / 7.0);
        }
        outcome
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        for trace in [false, true] {
            let mut outcome = sample_outcome(trace);
            let line = result_json(&mut outcome, trace).to_string();
            assert!(!line.contains('\n'));
            let doc = json::parse(&line).expect("well-formed JSON");
            let keys: Vec<&str> = doc
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(1186.0));
            let metrics = doc
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let expected = reported_metrics(trace);
            assert_eq!(metrics.len(), expected.len());
            for ((name, metric), (want, unit)) in metrics.iter().zip(expected) {
                assert_eq!(name, want);
                assert!(metric.get("value").and_then(Value::as_f64).is_some());
                assert_eq!(metric.get("unit").and_then(Value::as_str), Some(unit));
            }
        }
    }

    #[test]
    fn missing_or_non_finite_end_to_end_metrics_fail_the_run() {
        let mut outcome = sample_outcome(false);
        outcome.values.retain(|(n, _)| *n != "setup_s");
        let doc = result_json(&mut outcome, false);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));

        let mut outcome = sample_outcome(false);
        outcome.values[0].1 = f64::NAN;
        let line = result_json(&mut outcome, false).to_string();
        assert!(json::parse(&line).is_some(), "NaN must not reach the line");
        assert!(!outcome.correct());
    }

    #[test]
    fn per_layer_metrics_a_workload_skips_read_zero() {
        let mut outcome = Outcome {
            attempted: 5,
            ..Outcome::default()
        };
        let doc = result_json(&mut outcome, true);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(metric_value(&doc, "rl.dispatch_us"), Some(0.0));
    }

    #[test]
    fn cli_parses_the_driver_invocation() {
        let args: Vec<String> = "--workload metro_b1 --seed 11 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse_cli(&args);
        assert_eq!(cli.workload.map(|w| w.name), Some("metro_b1"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (11, 3.0, Some(true)));
        assert!(!cli.check_repeat);
    }
}
