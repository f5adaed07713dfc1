//! The route-centric MDP state (Section IV-B).
//!
//! For order `o^i_t`, the joint state is `S^i_t = (s^i_{t,1}, …, s^i_{t,K})`
//! with per-vehicle features
//! `s^i_{t,k} = (d_{t,k}, d^i_{t,k}, ξ^i_{t,k}, f_{t,k}, t)`:
//! current route length, best-insertion route length, ST Score of the best
//! temporary route, used flag, and the time-interval index. Infeasible
//! vehicles get the paper's `-1` sentinel features and are masked out of
//! inference ("constraint embedding").
//!
//! **A column's features are computed once.** A [`DispatchContext`] holds
//! one plan per column — an idle-twin group of the batch is one column,
//! every other vehicle its own — and the members of a column are the same
//! input to everything features 0–2 read: their one plan gives `d` and
//! `d'`, and ξ reads the plan's schedule and the view's load on board,
//! which is zero for every member (a twin carries nothing). So
//! [`StateBuilder::build`] computes `(d, d', ξ)` on a column's first
//! member and copies them to the others, and every vehicle writes its own
//! `f_{t,k}` — members need not agree on it: a used vehicle parked beside
//! never-used ones shares their column — and `t`. The snapshot keeps one
//! row per vehicle, bit for bit the rows a per-vehicle build writes
//! (`state/tests.rs` checks both on random fleets).

use crate::adjacency::{nearest_neighbors, NeighborMemo, Neighbors};
use dpdp_data::{StScorer, StdMatrix};
use dpdp_nn::Tensor;
use dpdp_routing::PlannerOutput;
use dpdp_sim::DispatchContext;

/// Number of per-vehicle features.
pub const STATE_DIM: usize = 5;

/// A self-contained snapshot of one joint state: everything a Q-network
/// needs to (re)evaluate it later from the replay buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSnapshot {
    /// `K x 5` feature matrix.
    pub features: Tensor,
    /// Per-vehicle feasibility mask (the constraint embedding).
    pub feasible: Vec<bool>,
    /// Per-vehicle neighbour lists for the graph layers, all `K` in one
    /// flat table: vehicle `v`'s list is [`Neighbors::list`]`(v)`, a slice
    /// of the table's one buffer. [`StateBuilder::build`] fills it with
    /// [`nearest_neighbors`]; any `Vec<Vec<usize>>` collects into it.
    pub neighbors: Neighbors,
}

impl StateSnapshot {
    /// Number of vehicles `K`.
    pub fn num_vehicles(&self) -> usize {
        self.feasible.len()
    }

    /// Whether any vehicle can take the order.
    pub fn any_feasible(&self) -> bool {
        self.feasible.iter().any(|&f| f)
    }
}

/// Builds [`StateSnapshot`]s from simulator dispatch contexts.
#[derive(Debug, Clone)]
pub struct StateBuilder {
    /// ST scorer; `None` disables the ST-Score feature (the paper's
    /// DQN/DDQN/DGN/DDGN ablations).
    scorer: Option<StScorer>,
    /// Predicted STD matrix for the current day (used with `scorer`).
    predicted: Option<StdMatrix>,
    /// Distances are divided by this scale before entering the network.
    dist_scale: f64,
    /// Interval indices are divided by this (usually `T`).
    interval_scale: f64,
    /// Neighbourhood size `NE`.
    ne: usize,
}

impl StateBuilder {
    /// A builder without ST scoring.
    pub fn new(dist_scale: f64, num_intervals: usize, ne: usize) -> Self {
        assert!(dist_scale > 0.0, "dist_scale must be positive");
        StateBuilder {
            scorer: None,
            predicted: None,
            dist_scale,
            interval_scale: num_intervals.max(1) as f64,
            ne,
        }
    }

    /// Enables the ST-Score feature with the given scorer.
    pub fn with_scorer(mut self, scorer: StScorer) -> Self {
        self.scorer = Some(scorer);
        self
    }

    /// Sets the predicted STD matrix for the upcoming episode.
    pub fn set_prediction(&mut self, predicted: Option<StdMatrix>) {
        self.predicted = predicted;
    }

    /// Whether ST scoring is active (scorer and prediction both present).
    pub fn st_active(&self) -> bool {
        self.scorer.is_some() && self.predicted.is_some()
    }

    /// Builds the joint state for one dispatch decision: one feature row
    /// per vehicle, features 0–2 once per column of the context (see the
    /// module docs), then each vehicle's own `f_{t,k}` and `t`.
    ///
    /// # Panics
    /// Panics if the context's columns are not numbered by first member
    /// (see [`DispatchContext::column_plans`]).
    pub fn build(&self, ctx: &DispatchContext<'_>) -> StateSnapshot {
        self.build_with(ctx, nearest_neighbors(ctx.views, ctx.net, self.ne))
    }

    /// [`StateBuilder::build`], with the neighbour table taken from `memo`
    /// — a copy of the last one when no vehicle's anchor moved since (see
    /// [`NeighborMemo`]). Bit for bit the snapshot `build` returns.
    pub(crate) fn build_memoised(
        &self,
        ctx: &DispatchContext<'_>,
        memo: &mut NeighborMemo,
    ) -> StateSnapshot {
        self.build_with(ctx, memo.neighbors(ctx.views, ctx.net, self.ne))
    }

    /// The snapshot of `ctx` with `neighbors` as its neighbour table.
    fn build_with(&self, ctx: &DispatchContext<'_>, neighbors: Neighbors) -> StateSnapshot {
        let k = ctx.num_vehicles();
        let mut features = Tensor::zeros(k, STATE_DIM);
        let mut feasible = vec![false; k];
        let t_feat = ctx.interval as f64 / self.interval_scale;
        // The row each column's features 0–2 were written in.
        let mut first_row: Vec<usize> = Vec::with_capacity(ctx.column_plans.len());
        let data = features.data_mut();
        for (v, &c) in ctx.column_of.iter().enumerate() {
            let (c, row) = (c as usize, v * STATE_DIM);
            let plan = &ctx.column_plans[c];
            if let Some(&first) = first_row.get(c) {
                let from = first * STATE_DIM;
                data.copy_within(from..from + 3, row);
            } else {
                assert_eq!(c, first_row.len(), "columns are numbered by first member");
                first_row.push(v);
                data[row..row + 3].copy_from_slice(&self.column_features(ctx, v, plan));
            }
            feasible[v] = plan.feasible();
            // The paper's Algorithm 2 sentinel values for infeasible
            // vehicles; they are masked out of inference anyway.
            data[row + 3] = match (feasible[v], ctx.views[v].used) {
                (false, _) => -1.0,
                (true, used) => f64::from(u8::from(used)),
            };
            data[row + 4] = t_feat;
        }
        StateSnapshot {
            features,
            feasible,
            neighbors,
        }
    }

    /// Features 0–2 — `d_{t,k}`, `d^i_{t,k}` and ξ — of a column whose
    /// plan is `plan`, computed on its first member `v`'s view (`-1` each
    /// for an infeasible column).
    fn column_features(
        &self,
        ctx: &DispatchContext<'_>,
        v: usize,
        plan: &PlannerOutput,
    ) -> [f64; 3] {
        let Some(best) = &plan.best else {
            return [-1.0; 3];
        };
        let xi = match (&self.scorer, &self.predicted) {
            (Some(scorer), Some(pred)) => scorer.score(
                &ctx.views[v],
                &best.candidate.schedule,
                pred,
                ctx.fleet.capacity,
            ),
            _ => 0.0,
        };
        [
            plan.current_length / self.dist_scale,
            best.length() / self.dist_scale,
            xi,
        ]
    }
}

#[cfg(test)]
mod tests;
