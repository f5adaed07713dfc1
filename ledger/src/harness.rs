//! What every workload shares: run arguments, the repetition loop, set-up
//! timing, and the outcome a run reports.

use crate::procfs;
use crate::spec::Workload;
use crate::stats::{self, Summary};
use std::time::Instant;

/// Arguments of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    /// How long the timed phase measures for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced run (end-to-end metrics).
    pub trace: bool,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Orders submitted during the timed phase.
    pub attempted: u64,
    /// Orders that failed: no decision, an infeasible committed plan, an
    /// `ERR` frame, a panic.
    pub failed: u64,
    /// Every violated output check, in words; empty means correct.
    pub problems: Vec<String>,
    /// Measured metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// Median, quartiles and count of the raw samples behind a value.
    pub summaries: Vec<(&'static str, Summary)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Records `value` under `name`, keeping the summary of the raw
    /// `samples` it was distilled from for the report line.
    pub fn set_beside(&mut self, name: &'static str, value: f64, samples: &[f64]) {
        self.values.push((name, value));
        self.summaries.push((name, stats::summarize(samples)));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    pub fn problem(&mut self, text: impl Into<String>) {
        self.problems.push(text.into());
    }

    /// Flags a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// The fastest observation of each unit of work across a run's
/// repetitions.
///
/// Every repetition of a workload does the same units of work in the same
/// order (episodes are deterministic and checked bit-identical), so unit
/// `i` of one repetition can be compared with unit `i` of the next. The
/// sizing machine's host steals ~30% of its speed for seconds at a time
/// (measured: back-to-back identical 50 ms episodes alternate between
/// ~47 ms and ~68 ms in phases of 1-5 s); a median over repetitions lands
/// in either phase, the per-unit minimum lands in the undisturbed one as
/// soon as one repetition met it there.
#[derive(Debug, Default)]
pub struct Quiet {
    units: Vec<f64>,
    reps: usize,
}

impl Quiet {
    /// Folds one repetition in. `false` when it has another number of
    /// units than the repetitions before it, which no workload should do.
    pub fn observe(&mut self, units: &[f64]) -> bool {
        self.reps += 1;
        if self.reps == 1 {
            self.units = units.to_vec();
            return true;
        }
        if units.len() != self.units.len() {
            return false;
        }
        for (best, &now) in self.units.iter_mut().zip(units) {
            *best = best.min(now);
        }
        true
    }

    pub fn units(&self) -> &[f64] {
        &self.units
    }

    /// Repetitions folded in so far.
    pub fn reps(&self) -> usize {
        self.reps
    }

    /// Wall seconds of one undisturbed repetition, when the units are the
    /// tiles of its wall time.
    pub fn wall(&self) -> f64 {
        self.units.iter().sum()
    }
}

/// Seconds between consecutive instants: the tiles a repetition's wall
/// time is cut into.
pub fn tiles(bounds: &[Instant]) -> Vec<f64> {
    bounds
        .windows(2)
        .map(|w| w[1].saturating_duration_since(w[0]).as_secs_f64())
        .collect()
}

/// Set-up timing. Set-up is everything before the first repetition can
/// start (dataset, instance, model, pool, simulator or server); the
/// warm-up repetition is not part of it. It is sampled in a
/// first batch before the run and once after each repetition, so that the
/// samples spread over the run like the repetitions do; `setup_s` is the
/// fastest (see [`Quiet`]).
pub struct SetupTimer {
    pub secs: Vec<f64>,
}

impl SetupTimer {
    /// The first batch: at least three set-ups, and on until 0.2 s have
    /// been spent. Returns the last product.
    pub fn first<W>(mut setup: impl FnMut() -> W) -> (SetupTimer, W) {
        let began = Instant::now();
        let mut secs = Vec::new();
        loop {
            let t0 = Instant::now();
            let world = setup();
            secs.push(t0.elapsed().as_secs_f64());
            if secs.len() >= 3 && began.elapsed().as_secs_f64() >= 0.2 {
                return (SetupTimer { secs }, world);
            }
        }
    }

    /// One more sample. The product is handed back for the caller to
    /// check and drop.
    pub fn again<W>(&mut self, setup: impl FnOnce() -> W) -> W {
        let t0 = Instant::now();
        let world = setup();
        self.secs.push(t0.elapsed().as_secs_f64());
        world
    }
}

/// The timed phase: repetitions run until the budget is spent, and at
/// least twice (with the warm-up, [`Quiet`] then has three observations of
/// every unit to find an undisturbed one among).
pub struct RepLoop {
    seconds: f64,
    began: Instant,
    /// Wall seconds of each repetition.
    pub walls: Vec<f64>,
    /// Process CPU seconds at the start and end of each repetition.
    cpu_spans: Vec<(f64, f64)>,
    /// `VmHWM` after the second repetition: peak memory is read after a
    /// fixed amount of work, not after however many repetitions fit.
    peak_rss_mb: f64,
}

impl RepLoop {
    pub fn start(args: &RunArgs) -> RepLoop {
        RepLoop {
            seconds: args.seconds,
            began: Instant::now(),
            walls: Vec::new(),
            cpu_spans: Vec::new(),
            peak_rss_mb: f64::NAN,
        }
    }

    /// Whether another repetition is due.
    pub fn again(&self) -> bool {
        self.walls.len() < 2 || self.began.elapsed().as_secs_f64() < self.seconds
    }

    /// Runs and times one repetition.
    pub fn rep<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let cpu0 = procfs::cpu_secs().unwrap_or(f64::NAN);
        let t0 = Instant::now();
        let out = f();
        self.walls.push(t0.elapsed().as_secs_f64());
        self.cpu_spans
            .push((cpu0, procfs::cpu_secs().unwrap_or(f64::NAN)));
        if self.walls.len() == 2 {
            self.peak_rss_mb = procfs::peak_rss_mb().unwrap_or(f64::NAN);
        }
        out
    }

    /// Whether peak memory has been read, so that work beside the
    /// repetitions (set-up samples) no longer shows in it.
    pub fn peak_taken(&self) -> bool {
        self.walls.len() >= 2
    }

    /// Cores the process kept busy, averaged over every repetition.
    ///
    /// CPU time is read in ticks of 10 ms, far too coarse to cut into the
    /// units [`Quiet`] compares, and the host's slow phases stretch it like
    /// they stretch wall time. Their ratio does not move with them, so CPU
    /// per order is taken as busy cores times the quiet wall time.
    fn busy_cores(&self) -> f64 {
        let cpu: f64 = self.cpu_spans.iter().map(|(from, to)| to - from).sum();
        cpu / self.walls.iter().sum::<f64>()
    }
}

/// The traced run's loop: pairs of one untraced and one traced repetition,
/// at least two pairs and on until the budget is spent. The order within a
/// pair flips each time, so drift across repetitions does not read as
/// overhead. `rep(traced)` returns the repetition's tiles; the quiet wall
/// times of the two kinds give `ledger.trace_overhead_ratio`.
pub fn alternate(
    seconds: f64,
    mut rep: impl FnMut(bool) -> Result<Vec<f64>, String>,
) -> Result<(Quiet, Quiet), String> {
    let began = Instant::now();
    let (mut plain, mut traced) = (Quiet::default(), Quiet::default());
    while plain.reps < 2 || began.elapsed().as_secs_f64() < seconds {
        let traced_first = plain.reps % 2 == 1;
        for is_traced in [traced_first, !traced_first] {
            let tiles = rep(is_traced)?;
            let quiet = if is_traced { &mut traced } else { &mut plain };
            if !quiet.observe(&tiles) {
                return Err("repetitions differ in their number of work units".to_string());
            }
        }
    }
    Ok((plain, traced))
}

/// The two `ledger.*` metrics every traced run reports.
pub fn report_trace_ratios(out: &mut Outcome, plain: &Quiet, traced: &Quiet, warmup_wall: f64) {
    let plain_wall = plain.wall();
    out.set("ledger.trace_overhead_ratio", traced.wall() / plain_wall);
    out.set("ledger.warmup_ratio", warmup_wall / plain_wall);
}

/// Decision quality of one repetition; identical across repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub orders: usize,
    pub served: usize,
    pub nuv: usize,
    pub total_cost: f64,
}

/// What the timed phase of one untraced run collected.
pub struct TimedPhase<'a> {
    pub reps: &'a RepLoop,
    pub setup: &'a SetupTimer,
    /// Tiles of the repetition's wall time.
    pub tiles: &'a Quiet,
    /// Milliseconds to decide: one unit per order or per request.
    pub latencies_ms: &'a Quiet,
    /// Orders one repetition decides.
    pub orders_per_rep: usize,
    pub quality: Quality,
}

/// Fills in the end-to-end metrics every workload reports the same way.
/// Timings are quiet times (see [`Quiet`]); the report line also shows the
/// raw repetitions' median and quartiles.
pub fn report_end_to_end(out: &mut Outcome, workload: &Workload, t: TimedPhase<'_>) {
    let wall = t.tiles.wall();
    out.set_beside("episode_wall_s", wall, &t.reps.walls);
    out.set("orders_per_s", t.orders_per_rep as f64 / wall);
    out.set(
        "cpu_us_per_order",
        t.reps.busy_cores() * wall * 1e6 / t.orders_per_rep as f64,
    );
    let latencies = t.latencies_ms.units();
    out.set("decision_mid_ms", stats::midmean(latencies));
    out.set(
        "decision_tail_ms",
        stats::percentile(latencies, workload.tail_percentile),
    );
    out.check(
        stats::highest_supported_percentile(latencies.len())
            .is_some_and(|p| p >= workload.tail_percentile),
        || {
            format!(
                "only {} latency samples: p{} has fewer than ten beyond it",
                latencies.len(),
                workload.tail_percentile
            )
        },
    );
    out.set("peak_rss_mb", t.reps.peak_rss_mb);
    let q = t.quality;
    out.set("served_ratio", q.served as f64 / q.orders as f64);
    out.set("nuv", q.nuv as f64);
    out.set("total_cost", q.total_cost);
    let fastest = t.setup.secs.iter().copied().fold(f64::INFINITY, f64::min);
    out.set_beside("setup_s", fastest, &t.setup.secs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn quiet_keeps_the_fastest_observation_of_each_unit() {
        let mut q = Quiet::default();
        assert!(q.observe(&[3.0, 5.0, 2.0, 9.0]));
        assert!(q.observe(&[4.0, 1.0, 2.5, 7.0]));
        assert_eq!(q.units(), [3.0, 1.0, 2.0, 7.0]);
        assert_eq!(q.wall(), 13.0);
        assert!(
            !q.observe(&[1.0]),
            "a repetition of another shape is refused"
        );
    }

    #[test]
    fn tiles_cut_a_repetition_at_its_bounds() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        assert_eq!(tiles(&[at(0), at(10), at(10), at(35)]), [0.010, 0.0, 0.025]);
        assert!(tiles(&[t0]).is_empty());
    }

    #[test]
    fn busy_cores_is_cpu_over_wall_inside_the_repetitions() {
        let reps = RepLoop {
            seconds: 1.0,
            began: Instant::now(),
            walls: vec![0.5, 1.5],
            // The 0.3 CPU seconds between the repetitions are not theirs.
            cpu_spans: vec![(1.0, 1.75), (2.05, 4.3)],
            peak_rss_mb: 0.0,
        };
        assert!((reps.busy_cores() - 1.5).abs() < 1e-12);
    }
}
