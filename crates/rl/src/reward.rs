//! Rewards: Eq. (6)–(8) of the paper.

/// Reward parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardParams {
    /// Reward scaling factor `alpha`.
    pub alpha: f64,
    /// Fixed cost `mu` of activating a vehicle.
    pub fixed_cost: f64,
    /// Operating cost `delta` per km.
    pub unit_cost: f64,
}

impl RewardParams {
    /// Builds from the fleet's cost model with the given `alpha`.
    pub fn new(alpha: f64, fixed_cost: f64, unit_cost: f64) -> Self {
        RewardParams {
            alpha,
            fixed_cost,
            unit_cost,
        }
    }
}

/// The instant reward of assigning an order to a vehicle:
/// `r = -alpha * (mu * [vehicle newly activated] + delta * Δd)`.
///
/// Note on Eq. (6): the paper writes `mu * f_{t,k}` with `f = 1` when the
/// vehicle *has* been used before, which — read literally — charges the
/// fixed cost for reusing a vehicle and nothing for activating a fresh one,
/// contradicting both the TC definition (`mu` is paid once per *used*
/// vehicle) and the paper's stated goal of reducing NUV. We implement the
/// evidently intended semantics: the fixed cost is charged exactly when a
/// previously unused vehicle is activated (`1 - f`). This matches how the
/// baselines and the TC metric account for `mu`; the unit test
/// `fresh_vehicle_pays_fixed_cost` pins it.
pub fn instant_reward(params: &RewardParams, vehicle_was_used: bool, incremental_km: f64) -> f64 {
    let activation = if vehicle_was_used {
        0.0
    } else {
        params.fixed_cost
    };
    -params.alpha * (activation + params.unit_cost * incremental_km)
}

/// The episode-level long-term reward `r̄` (Eq. (7)): the mean instant
/// reward over all served orders of the episode. Returns 0 for empty input.
pub fn long_term_reward(instant_rewards: &[f64]) -> f64 {
    if instant_rewards.is_empty() {
        return 0.0;
    }
    instant_rewards.iter().sum::<f64>() / instant_rewards.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vehicle_pays_fixed_cost() {
        let p = RewardParams::new(0.01, 500.0, 2.0);
        let fresh = instant_reward(&p, false, 10.0);
        let reused = instant_reward(&p, true, 10.0);
        assert!((fresh - -0.01 * (500.0 + 20.0)).abs() < 1e-12);
        assert!((reused - -0.01 * 20.0).abs() < 1e-12);
        assert!(reused > fresh, "reusing a vehicle must be cheaper");
    }

    #[test]
    fn zero_detour_on_used_vehicle_is_free() {
        let p = RewardParams::new(1.0, 500.0, 2.0);
        assert_eq!(instant_reward(&p, true, 0.0), 0.0);
    }

    #[test]
    fn long_term_reward_is_the_mean() {
        assert_eq!(long_term_reward(&[]), 0.0);
        assert!((long_term_reward(&[-1.0, -3.0]) - -2.0).abs() < 1e-12);
    }
}
