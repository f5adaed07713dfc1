//! Timed evaluation of dispatchers on instances.
//!
//! Evaluation is **observer-based**: one [`EvalProbe`] streams every count
//! an [`EvalRow`] needs straight from the episode's epoch/decision events,
//! and the simulator runs with the per-order and per-vehicle logs switched
//! off — one pass, no post-hoc scraping of materialized `EpisodeResult`
//! vectors (only the end-of-episode aggregates, which the simulator always
//! computes, are read at the end).

use dpdp_net::Instance;
use dpdp_pool::ThreadPool;
use dpdp_sim::{
    CancelOutcome, DecisionRecord, Dispatcher, DisruptionKind, DisruptionRecord, EpochInfo,
    MetricsOptions, RejectionCounts, SimObserver, Simulator,
};
use std::sync::Arc;
use std::time::Instant;

/// One row of a comparison table: a dispatcher's metrics on one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRow {
    /// Dispatcher name.
    pub algo: String,
    /// Number of used vehicles.
    pub nuv: usize,
    /// Total cost.
    pub total_cost: f64,
    /// Total travel length, km.
    pub ttl: f64,
    /// Orders served.
    pub served: usize,
    /// Orders rejected.
    pub rejected: usize,
    /// Rejections broken down by decision reason (streamed by the
    /// evaluation probe; `rejections.total() == rejected`).
    pub rejections: RejectionCounts,
    /// Wall-clock seconds for the whole episode (all dispatch decisions
    /// plus simulation bookkeeping) — the analogue of Table I's wall time.
    pub wall_secs: f64,
    /// Decision epochs the episode went through (batched dispatch calls).
    pub epochs: usize,
}

/// Streaming evaluation observer: accumulates epoch and decision counts —
/// including the per-reason rejection breakdown — from the episode's event
/// stream, so evaluation needs no materialized assignment log.
///
/// Disruption events are mirrored exactly the way the simulator's own
/// accumulator applies them (see `SimObserver::on_disruption`): a
/// post-assignment cancellation or a lost order moves one count from
/// served to the matching rejection reason, a stranded order is un-counted
/// until its re-dispatch decision streams back through `on_decision` —
/// so the probe's totals equal the episode aggregates even on disrupted
/// scenarios.
#[derive(Debug, Default, Clone)]
pub struct EvalProbe {
    /// Decision epochs (batched dispatch calls) seen.
    pub epochs: usize,
    /// Orders assigned.
    pub served: usize,
    /// Orders rejected.
    pub rejected: usize,
    /// Rejections by reason.
    pub rejections: RejectionCounts,
    /// Cancellation events applied (any outcome).
    pub cancellations: usize,
    /// Vehicle breakdowns applied.
    pub breakdowns: usize,
}

impl SimObserver for EvalProbe {
    fn on_epoch(&mut self, _epoch: &EpochInfo) {
        self.epochs += 1;
    }

    fn on_decision(&mut self, record: &DecisionRecord<'_>) {
        if record.decision.is_assigned() {
            self.served += 1;
        } else {
            self.rejected += 1;
            self.rejections.record(record.decision.reason);
        }
    }

    fn on_disruption(&mut self, record: &DisruptionRecord) {
        match &record.kind {
            DisruptionKind::OrderCancelled { outcome, .. } => {
                self.cancellations += 1;
                if *outcome == CancelOutcome::AfterAssignment {
                    self.served -= 1;
                    self.rejected += 1;
                    self.rejections.cancelled += 1;
                }
                // BeforeDispatch flows through on_decision; TooLate is a
                // no-op.
            }
            DisruptionKind::VehicleBreakdown { stranded, lost, .. } => {
                self.breakdowns += 1;
                self.served -= stranded.len() + lost.len();
                self.rejected += lost.len();
                self.rejections.vehicle_lost += lost.len();
            }
            DisruptionKind::VehicleRecovered { .. } => {}
        }
    }
}

/// Runs one episode single-threaded and times it.
pub fn evaluate(dispatcher: &mut dyn Dispatcher, instance: &Instance) -> EvalRow {
    evaluate_threads(dispatcher, instance, 1)
}

/// Runs one episode on a scoring pool of `num_threads` threads and times
/// it. Metrics are identical for every thread count (see
/// [`dpdp_sim::SimulatorBuilder::num_threads`]); only `wall_secs` moves.
pub fn evaluate_threads(
    dispatcher: &mut dyn Dispatcher,
    instance: &Instance,
    num_threads: usize,
) -> EvalRow {
    evaluate_pooled(
        dispatcher,
        instance,
        &Arc::new(ThreadPool::new(num_threads)),
    )
}

/// Runs one episode on a caller-owned pool (reused across episodes so the
/// workers outlive each one) and times it. Counts stream through an
/// [`EvalProbe`] and the per-order/per-vehicle logs are never materialized.
pub fn evaluate_pooled(
    dispatcher: &mut dyn Dispatcher,
    instance: &Instance,
    pool: &Arc<ThreadPool>,
) -> EvalRow {
    let mut probe = EvalProbe::default();
    let start = Instant::now();
    let result = Simulator::builder(instance)
        .thread_pool(Arc::clone(pool))
        .metrics(MetricsOptions {
            record_assignments: false,
            record_vehicle_stats: false,
        })
        .build()
        .unwrap()
        .run_observed(dispatcher, &mut [&mut probe]);
    let wall_secs = start.elapsed().as_secs_f64();
    let m = result.metrics;
    debug_assert_eq!(m.served, probe.served, "probe diverged from aggregates");
    debug_assert_eq!(m.rejections, probe.rejections);
    EvalRow {
        algo: dispatcher.name().to_string(),
        nuv: m.nuv,
        total_cost: m.total_cost,
        ttl: m.ttl,
        served: probe.served,
        rejected: probe.rejected,
        rejections: probe.rejections,
        wall_secs,
        epochs: probe.epochs,
    }
}

/// Evaluates a dispatcher across several instances, each episode scored on
/// a pool of `num_threads` threads, returning one row per instance (in
/// order).
pub fn evaluate_many_threads(
    dispatcher: &mut dyn Dispatcher,
    instances: &[Instance],
    num_threads: usize,
) -> Vec<EvalRow> {
    // One pool for the whole sweep: episodes share the workers instead of
    // paying thread spawn/teardown per instance.
    let pool = Arc::new(ThreadPool::new(num_threads));
    instances
        .iter()
        .map(|inst| evaluate_pooled(dispatcher, inst, &pool))
        .collect()
}

/// Averages rows (same algorithm, many instances) into a summary row; wall
/// time and epoch counts are summed (totals), the other metrics are means.
/// The rejection breakdown is averaged per reason (floor division) and the
/// summary's `rejected` is its total, so `rejections.total() == rejected`
/// holds on the mean row just as on per-instance rows.
pub fn mean_row(rows: &[EvalRow]) -> Option<EvalRow> {
    if rows.is_empty() {
        return None;
    }
    let n = rows.len() as f64;
    let mean_count = |field: fn(&RejectionCounts) -> usize| {
        rows.iter().map(|r| field(&r.rejections)).sum::<usize>() / rows.len()
    };
    let rejections = RejectionCounts {
        no_feasible_vehicle: mean_count(|r| r.no_feasible_vehicle),
        policy_rejected: mean_count(|r| r.policy_rejected),
        infeasible_choice: mean_count(|r| r.infeasible_choice),
        cancelled: mean_count(|r| r.cancelled),
        vehicle_lost: mean_count(|r| r.vehicle_lost),
    };
    Some(EvalRow {
        algo: rows[0].algo.clone(),
        nuv: (rows.iter().map(|r| r.nuv).sum::<usize>() as f64 / n).round() as usize,
        total_cost: rows.iter().map(|r| r.total_cost).sum::<f64>() / n,
        ttl: rows.iter().map(|r| r.ttl).sum::<f64>() / n,
        served: rows.iter().map(|r| r.served).sum::<usize>() / rows.len(),
        rejected: rejections.total(),
        rejections,
        wall_secs: rows.iter().map(|r| r.wall_secs).sum::<f64>(),
        epochs: rows.iter().map(|r| r.epochs).sum::<usize>(),
    })
}

/// Mean and standard deviation of a metric across repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanStd {
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
}

fn mean_std(values: &[f64]) -> MeanStd {
    let n = values.len().max(1) as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    MeanStd {
        mean,
        std: var.sqrt(),
    }
}

/// Aggregate of the paper's repeated-training protocol ("the policy
/// learning of DRL methods are conducted five times on each testing
/// instance"): per-metric mean ± std across seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SeededEval {
    /// Dispatcher name.
    pub algo: String,
    /// NUV across seeds.
    pub nuv: MeanStd,
    /// Total cost across seeds.
    pub total_cost: MeanStd,
    /// Number of runs.
    pub runs: usize,
}

/// Trains a freshly-seeded model per seed via `make`, evaluates each on
/// `instance`, and aggregates — the paper's five-repetition protocol.
pub fn evaluate_seeds(
    make: impl Fn(u64) -> Box<dyn Dispatcher>,
    instance: &Instance,
    seeds: &[u64],
) -> SeededEval {
    let mut nuvs = Vec::with_capacity(seeds.len());
    let mut costs = Vec::with_capacity(seeds.len());
    let mut name = String::new();
    for &seed in seeds {
        let mut d = make(seed);
        let row = evaluate(d.as_mut(), instance);
        name = row.algo;
        nuvs.push(row.nuv as f64);
        costs.push(row.total_cost);
    }
    SeededEval {
        algo: name,
        nuv: mean_std(&nuvs),
        total_cost: mean_std(&costs),
        runs: seeds.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use crate::presets::Presets;

    #[test]
    fn evaluate_times_and_reports() {
        let p = Presets::quick();
        let inst = p.tiny_instance(6, 7);
        let mut b1 = models::baseline1();
        let row = evaluate(&mut *b1, &inst);
        assert_eq!(row.algo, "Baseline1");
        assert_eq!(row.served + row.rejected, 6);
        assert!(row.wall_secs >= 0.0);
        assert!(row.total_cost > 0.0);
        assert!(row.epochs >= 1 && row.epochs <= 6);
    }

    #[test]
    fn evaluate_threads_reports_identical_metrics() {
        let p = Presets::quick();
        let inst = p.tiny_instance(6, 7);
        let serial = evaluate(&mut *models::baseline1(), &inst);
        let parallel = evaluate_threads(&mut *models::baseline1(), &inst, 4);
        assert_eq!(serial.nuv, parallel.nuv);
        assert_eq!(serial.total_cost, parallel.total_cost);
        assert_eq!(serial.ttl, parallel.ttl);
        assert_eq!(serial.served, parallel.served);
        assert_eq!(serial.epochs, parallel.epochs);
    }

    #[test]
    fn evaluate_seeds_aggregates_runs() {
        let p = Presets::quick();
        let inst = p.tiny_instance(5, 3);
        // A deterministic heuristic: zero variance across "seeds".
        let agg = evaluate_seeds(|_| models::baseline1(), &inst, &[1, 2, 3]);
        assert_eq!(agg.runs, 3);
        assert_eq!(agg.algo, "Baseline1");
        assert_eq!(agg.nuv.std, 0.0);
        assert_eq!(agg.total_cost.std, 0.0);
        assert!(agg.total_cost.mean > 0.0);
    }

    #[test]
    fn mean_std_math() {
        let ms = mean_std(&[1.0, 3.0]);
        assert!((ms.mean - 2.0).abs() < 1e-12);
        assert!((ms.std - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_row_averages() {
        let rows = vec![
            EvalRow {
                algo: "X".into(),
                nuv: 2,
                total_cost: 100.0,
                ttl: 10.0,
                served: 5,
                rejected: 0,
                rejections: RejectionCounts::default(),
                wall_secs: 0.5,
                epochs: 5,
            },
            EvalRow {
                algo: "X".into(),
                nuv: 4,
                total_cost: 200.0,
                ttl: 30.0,
                served: 5,
                rejected: 2,
                rejections: RejectionCounts {
                    no_feasible_vehicle: 2,
                    ..RejectionCounts::default()
                },
                wall_secs: 0.5,
                epochs: 5,
            },
        ];
        let m = mean_row(&rows).unwrap();
        assert_eq!(m.nuv, 3);
        assert!((m.total_cost - 150.0).abs() < 1e-12);
        assert!((m.ttl - 20.0).abs() < 1e-12);
        assert!((m.wall_secs - 1.0).abs() < 1e-12);
        assert_eq!(m.rejections.no_feasible_vehicle, 1);
        assert_eq!(m.rejected, m.rejections.total());
        assert!(mean_row(&[]).is_none());
    }

    #[test]
    fn evaluate_streams_rejection_breakdown() {
        let p = Presets::quick();
        let inst = p.tiny_instance(6, 7);
        let row = evaluate(&mut *models::baseline1(), &inst);
        assert_eq!(row.rejections.total(), row.rejected);
        assert_eq!(row.served + row.rejected, 6);
    }
}
