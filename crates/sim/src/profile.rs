//! Where a decision epoch's time goes: per-stage wall-clock totals.
//!
//! The engine fills an [`EpochProfile`] only for an epoch some observer
//! asked to see profiled ([`SimObserver::wants_profile`]) and hands it over
//! through [`SimObserver::on_epoch_profile`] once the epoch's last decision
//! is recorded. The clock is read at the boundaries between stages and
//! once around each [`DecisionBatch::with_context`] row and each
//! [`DecisionBatch::resolve`], never per cell; an epoch nobody profiles
//! pays one branch per stage. A policy times its own parts through the
//! [`StageTimer`] its [`DispatchContext`] carries: one branch per call when
//! nobody profiles the epoch. Profiling reads the clock and nothing else,
//! so a profiled episode is bit-identical to an unprofiled one.
//!
//! [`SimObserver::wants_profile`]: crate::observer::SimObserver::wants_profile
//! [`SimObserver::on_epoch_profile`]: crate::observer::SimObserver::on_epoch_profile
//! [`DecisionBatch::with_context`]: crate::batch::DecisionBatch::with_context
//! [`DecisionBatch::resolve`]: crate::batch::DecisionBatch::resolve
//! [`DispatchContext`]: crate::dispatcher::DispatchContext

use std::cell::RefCell;
use std::time::Instant;

/// One stage of a decision epoch, in the order an epoch runs them.
///
/// The stages tile the epoch: every nanosecond between the start of the
/// fleet advance and the return of the last `on_decision` is charged to
/// exactly one of them. `Materialise`, `Snapshot`, `Partition`, `Forward`
/// and `Resolve` run inside the policy's `dispatch_batch` and are not
/// charged to `Policy` a second time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Every vehicle advanced to the epoch instant, the breakdown mask,
    /// demand accounting and re-partitioning.
    Advance,
    /// The batch's copy of the fleet's views, the idle-twin grouping and
    /// the shard classification (`plan_sweep`).
    Classify,
    /// The schedule-cache rebuilds and the scoring of every classified
    /// cell.
    Score,
    /// The plan matrix's rows, per-column fallbacks and column index.
    Store,
    /// The routes and schedules [`DecisionBatch::with_context`] builds for
    /// the row it shows a per-order policy (one call per row shown).
    ///
    /// [`DecisionBatch::with_context`]: crate::batch::DecisionBatch::with_context
    Materialise,
    /// A Q-policy's joint state of one order: the feature matrix, the
    /// feasibility mask and the neighbour table (`dpdp-rl`'s
    /// `StateBuilder`), charged by the policy through its
    /// [`StageTimer`]. Zero for a policy that builds none.
    Snapshot,
    /// A Q-policy's partition of a joint state's feasible vehicles into
    /// the classes its network cannot tell apart, charged through the
    /// [`StageTimer`] once per greedy decision.
    Partition,
    /// A Q-policy's forward pass over those classes and the Q-vector read
    /// off it, charged through the [`StageTimer`] once per greedy
    /// decision.
    Forward,
    /// The policy: `on_epoch`, the `dispatch_batch` call and the engine's
    /// check of what it returned, less the `Materialise`, `Snapshot`,
    /// `Partition`, `Forward` and `Resolve` time spent inside them.
    Policy,
    /// Every [`DecisionBatch::resolve`], the policy's and the engine's
    /// (one call per order of the epoch).
    ///
    /// [`DecisionBatch::resolve`]: crate::batch::DecisionBatch::resolve
    Resolve,
    /// Tearing the batch down, the episode's assignment records and the
    /// observers' `on_decision` calls.
    Record,
}

impl Stage {
    /// Every stage, in epoch order.
    pub const ALL: [Stage; 11] = [
        Stage::Advance,
        Stage::Classify,
        Stage::Score,
        Stage::Store,
        Stage::Materialise,
        Stage::Snapshot,
        Stage::Partition,
        Stage::Forward,
        Stage::Policy,
        Stage::Resolve,
        Stage::Record,
    ];

    /// The stage's name, as a profile readout prints it.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Advance => "Advance",
            Stage::Classify => "Classify",
            Stage::Score => "Score",
            Stage::Store => "Store",
            Stage::Materialise => "Materialise",
            Stage::Snapshot => "Snapshot",
            Stage::Partition => "Partition",
            Stage::Forward => "Forward",
            Stage::Policy => "Policy",
            Stage::Resolve => "Resolve",
            Stage::Record => "Record",
        }
    }
}

/// Per-stage wall-clock nanoseconds and call counts of one decision
/// epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochProfile {
    nanos: [u64; Stage::ALL.len()],
    calls: [u64; Stage::ALL.len()],
}

impl EpochProfile {
    /// Nanoseconds charged to `stage`.
    pub fn nanos(&self, stage: Stage) -> u64 {
        self.nanos[stage as usize]
    }

    /// Times `stage` was timed: once per epoch for the stages the engine
    /// runs itself, once per row or per order for `Materialise` and
    /// `Resolve`, once per call the policy timed for `Snapshot`,
    /// `Partition` and `Forward`.
    pub fn calls(&self, stage: Stage) -> u64 {
        self.calls[stage as usize]
    }

    fn charge(&mut self, stage: Stage, nanos: u64) {
        self.nanos[stage as usize] += nanos;
        self.calls[stage as usize] += 1;
    }
}

/// The clock an epoch is profiled with: the profile so far and when the
/// running stage began.
#[derive(Debug)]
pub(crate) struct StageClock {
    pub(crate) profile: EpochProfile,
    /// When the running stage began.
    since: Instant,
    /// Nanoseconds [`StageClock::charge`] took out of the running stage.
    nested: u64,
}

impl StageClock {
    /// A clock whose first stage begins now.
    pub(crate) fn start() -> Self {
        StageClock {
            profile: EpochProfile::default(),
            since: Instant::now(),
            nested: 0,
        }
    }

    /// Ends the running stage as `stage`, less what was charged to nested
    /// stages meanwhile, and begins the next.
    pub(crate) fn lap(&mut self, stage: Stage) {
        let now = Instant::now();
        let wall = nanos_between(self.since, now);
        self.profile
            .charge(stage, wall.saturating_sub(std::mem::take(&mut self.nested)));
        self.since = now;
    }

    /// Charges `stage` with one call that began at `since` and ends now,
    /// nested inside the running stage.
    pub(crate) fn charge(&mut self, stage: Stage, since: Instant) {
        let nanos = nanos_between(since, Instant::now());
        self.profile.charge(stage, nanos);
        self.nested += nanos;
    }
}

/// The handle through which work nested in the running stage is charged
/// to a stage of its own: the engine's `Materialise` and `Resolve` calls,
/// and a policy's `Snapshot`, `Partition` and `Forward` (the handle a
/// [`DispatchContext`] carries as [`DispatchContext::timer`]). On an epoch
/// nobody profiles — or a context built by hand, whose timer is
/// [`StageTimer::default`] — [`StageTimer::time`] runs its closure and
/// nothing else.
///
/// [`DispatchContext`]: crate::dispatcher::DispatchContext
/// [`DispatchContext::timer`]: crate::dispatcher::DispatchContext::timer
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimer<'a> {
    clock: Option<&'a RefCell<StageClock>>,
}

impl<'a> StageTimer<'a> {
    /// A timer charging `clock`, or nothing when it is `None`.
    pub(crate) fn new(clock: Option<&'a RefCell<StageClock>>) -> Self {
        StageTimer { clock }
    }

    /// Runs `f`, charged to `stage` as one call nested in the running
    /// stage when the epoch is profiled.
    #[inline]
    pub fn time<R>(&self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let Some(clock) = self.clock else {
            return f();
        };
        let since = Instant::now();
        let out = f();
        clock.borrow_mut().charge(stage, since);
        out
    }
}

/// Ends the running stage of `clock`, when the epoch is profiled.
#[inline]
pub(crate) fn lap(clock: &mut Option<StageClock>, stage: Stage) {
    if let Some(clock) = clock {
        clock.lap(stage);
    }
}

fn nanos_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lap_excludes_the_calls_charged_inside_it() {
        let mut clock = StageClock::start();
        let since = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(10));
        clock.charge(Stage::Resolve, since);
        clock.lap(Stage::Policy);
        let p = clock.profile;
        assert!(p.nanos(Stage::Resolve) >= 10_000_000);
        assert!(p.nanos(Stage::Policy) < p.nanos(Stage::Resolve));
        assert_eq!((p.calls(Stage::Resolve), p.calls(Stage::Policy)), (1, 1));
    }
}
