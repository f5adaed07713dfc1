//! The ledger's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same tables (plus each workload's `why`) for
//! the driver; a unit test keeps the two in step.

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// The seed used when none is given on the command line.
pub const DEFAULT_SEED: u64 = 7;

/// Seed of everything a deployment fixes before the first order arrives:
/// campus, metro and megacity geometry, the order generator, and the
/// ST-DDGN weights. `--seed` draws the orders (which of the pool are
/// sampled; the tenants' streams) and seeds the simulator, so runs on
/// different seeds do statistically the same work on different inputs.
pub const WORLD_SEED: u64 = 7;

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    /// The tail percentile `decision_tail_ms` reports on this workload,
    /// fixed per workload so that runs compare. It leaves at least ten of
    /// one repetition's decisions beyond it, and stays at or below p95:
    /// whatever host interference the quiet times could not remove sits in
    /// the slowest few percent of the units.
    pub tail_percentile: f64,
    /// Width of the scoring pool. The in-process workloads run at 1, the
    /// `SimulatorBuilder` default (everything inline on the caller): the
    /// sizing machine's two CPUs are hyper-threads of one core (two
    /// spinning processes each run at 0.6 of the speed of one), so a second
    /// busy thread slows the first, and at width 2 `campus_infer_b10`
    /// alternated for minutes at a time between 4.0 s and 5.9 s episodes
    /// (README, caveat 5). The serving workloads keep the width `loadgen`
    /// and CI give the server.
    pub pool_width: usize,
}

const fn workload_spec(name: &'static str, tail_percentile: f64, pool_width: usize) -> Workload {
    Workload {
        name,
        tail_percentile,
        pool_width,
    }
}

pub const WORKLOADS: [Workload; 7] = [
    workload_spec("campus_infer", 90.0, 1),
    workload_spec("campus_infer_b10", 75.0, 1),
    workload_spec("campus_train", 90.0, 1),
    workload_spec("metro_b1", 90.0, 1),
    workload_spec("megacity_b1", 75.0, 1),
    workload_spec("serve_closed", 95.0, 2),
    workload_spec("serve_journal", 95.0, 2),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A metric a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Decision quality: a pure function of the seed, so two runs of one
    /// seed must agree to the last bit (`--check-repeat` enforces it).
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

/// Bounds are three times the widest spread (inter-quartile range over
/// median, ten runs on ten seeds) any workload showed on the sizing
/// machine, capped at the contract's 0.25 — which every timing hits: the
/// machine's host slows it by ~30% for seconds at a time (see
/// `harness::Quiet`).
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("episode_wall_s", "s", Better::Lower, 0.25, false),
    e2e("orders_per_s", "1/s", Better::Higher, 0.25, false),
    e2e("cpu_us_per_order", "us", Better::Lower, 0.25, false),
    e2e("decision_mid_ms", "ms", Better::Lower, 0.25, false),
    e2e("decision_tail_ms", "ms", Better::Lower, 0.25, false),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25, false),
    e2e("served_ratio", "ratio", Better::Higher, 0.04, true),
    e2e("nuv", "count", Better::Lower, 0.25, true),
    e2e("total_cost", "cost", Better::Lower, 0.2, true),
    e2e("setup_s", "s", Better::Lower, 0.25, false),
];

/// A metric of one layer (layer = crate name, before the dot).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Only `BENCHMARK.json` states the direction; the ledger never
    /// compares per-layer values.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 52] = [
    // From the traced run's spans and EpochInfo counts.
    layer("sim.epoch_p50_ms", "ms", Lower),
    layer("sim.epoch_p75_ms", "ms", Lower),
    layer("sim.epoch_build_us", "us", Lower),
    layer("sim.epoch_commit_us", "us", Lower),
    layer("sim.build_share", "ratio", Lower),
    layer("rl.dispatch_us", "us", Lower),
    layer("rl.dispatch_share", "ratio", Lower),
    layer("rl.end_episode_ms", "ms", Lower),
    layer("baselines.dispatch_us", "us", Lower),
    layer("baselines.dispatch_share", "ratio", Lower),
    layer("sim.epochs", "count", Lower),
    layer("sim.orders_per_epoch_mean", "count", Higher),
    layer("sim.cells", "count", Lower),
    layer("sim.cells_evaluated", "count", Lower),
    layer("sim.cells_pruned", "count", Higher),
    layer("sim.cells_escalated", "count", Lower),
    layer("sim.pruned_fraction", "ratio", Higher),
    layer("sim.repartitions", "count", Lower),
    layer("sim.serve_inproc_us_per_order", "us", Lower),
    layer("server.wire_overhead_us_per_order", "us", Lower),
    layer("server.hello_ms", "ms", Lower),
    layer("server.drain_ms", "ms", Lower),
    layer("server.write_us", "us", Lower),
    layer("server.resume_replay_ms", "ms", Lower),
    layer("server.resume_replay_us_per_cmd", "us", Lower),
    layer("ledger.trace_overhead_ratio", "ratio", Lower),
    layer("ledger.warmup_ratio", "ratio", Lower),
    // From isolated calls into public functions.
    layer("net.distances_from_ns_per_elem", "ns", Lower),
    layer("net.travel_times_ns_per_elem", "ns", Lower),
    layer("net.shardmap_build_ms", "ms", Lower),
    layer("net.shardmap_build_weighted_ms", "ms", Lower),
    layer("routing.cache_rebuild_ns", "ns", Lower),
    layer("routing.sweep_best_ns", "ns", Lower),
    layer("routing.plan_ns", "ns", Lower),
    layer("routing.simulate_schedule_ns", "ns", Lower),
    layer("routing.provably_infeasible_ns", "ns", Lower),
    layer("pool.par_map_overhead_us_w1", "us", Lower),
    layer("pool.par_map_overhead_us_w2", "us", Lower),
    layer("pool.scope_spawn_us", "us", Lower),
    layer("rl.snapshot_build_us", "us", Lower),
    layer("rl.q_forward_us", "us", Lower),
    layer("rl.q_forward_batch_us_per_order", "us", Lower),
    layer("nn.matmul_fwd_us", "us", Lower),
    layer("nn.backward_us", "us", Lower),
    layer("data.generate_day_ms", "ms", Lower),
    layer("data.sampled_instance_ms", "ms", Lower),
    layer("data.predicted_std_ms", "ms", Lower),
    layer("server.parse_command_ns", "ns", Lower),
    layer("server.format_decision_ns", "ns", Lower),
    layer("server.parse_server_msg_ns", "ns", Lower),
    layer("server.journal_append_mem_ns", "ns", Lower),
    layer("server.journal_append_file_ns", "ns", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn committed() -> Value {
        json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
    }

    fn text<'v>(item: &'v Value, key: &str) -> &'v str {
        item.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("`{key}` is missing or not a string in {item}"))
    }

    fn better_of(item: &Value) -> Better {
        match text(item, "better") {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            other => panic!("better = `{other}`"),
        }
    }

    fn keys(item: &Value) -> Vec<&str> {
        let members = item.as_object().expect("an object");
        members.iter().map(|(k, _)| k.as_str()).collect()
    }

    fn section<'v>(doc: &'v Value, key: &str) -> &'v [Value] {
        doc.get(key).and_then(Value::as_array).expect(key)
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn committed_benchmark_json_states_these_tables() {
        let doc = committed();
        assert_eq!(
            keys(&doc),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS as f64)
        );
        assert_eq!(section(&doc, "paths"), [Value::Str("ledger".to_string())]);

        let workloads = section(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (item, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(keys(item), ["name", "why"]);
            assert_eq!(text(item, "name"), w.name);
            let why = text(item, "why");
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{}",
                w.name
            );
        }
        let end_to_end = section(&doc, "end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (item, m) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(keys(item), ["name", "unit", "better", "bound"]);
            assert_eq!((text(item, "name"), text(item, "unit")), (m.name, m.unit));
            assert_eq!(better_of(item), m.better, "{}", m.name);
            assert_eq!(
                item.get("bound").and_then(Value::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let per_layer = section(&doc, "per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (item, m) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(keys(item), ["name", "unit", "better"]);
            assert_eq!((text(item, "name"), text(item, "unit")), (m.name, m.unit));
            assert_eq!(better_of(item), m.better, "{}", m.name);
        }
    }

    #[test]
    fn the_tables_meet_the_contract_limits() {
        assert!(include_str!("../../BENCHMARK.json").len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));

        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

        let command = section(&committed(), "command").to_vec();
        assert!(command.len() <= 32);
        for arg in &command {
            let arg = arg.as_str().expect("command arguments are strings");
            assert!(
                arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
                "{arg}"
            );
        }
    }

    #[test]
    fn tail_percentiles_come_from_the_ladder() {
        for w in &WORKLOADS {
            assert!(
                crate::stats::PERCENTILE_LADDER.contains(&w.tail_percentile),
                "{}",
                w.name
            );
        }
    }
}
