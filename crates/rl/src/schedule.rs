//! Exploration schedules.

/// Linearly decaying epsilon for ε-greedy exploration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonSchedule {
    /// Initial epsilon (episode 0).
    pub start: f64,
    /// Final epsilon (from `decay_episodes` on).
    pub end: f64,
    /// Episodes over which epsilon decays linearly.
    pub decay_episodes: usize,
}

impl EpsilonSchedule {
    /// A linear schedule.
    ///
    /// # Panics
    /// Panics unless `0 <= end <= start <= 1`.
    pub fn linear(start: f64, end: f64, decay_episodes: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&end) && (0.0..=1.0).contains(&start) && end <= start,
            "need 0 <= end <= start <= 1"
        );
        EpsilonSchedule {
            start,
            end,
            decay_episodes,
        }
    }

    /// A constant schedule (e.g. 0 for greedy evaluation).
    pub fn constant(eps: f64) -> Self {
        Self::linear(eps, eps, 0)
    }

    /// Epsilon at the given episode.
    pub fn at(&self, episode: usize) -> f64 {
        if self.decay_episodes == 0 || episode >= self.decay_episodes {
            return self.end;
        }
        let frac = episode as f64 / self.decay_episodes as f64;
        self.start + (self.end - self.start) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_decay_endpoints_and_midpoint() {
        let s = EpsilonSchedule::linear(1.0, 0.1, 100);
        assert_eq!(s.at(0), 1.0);
        assert!((s.at(50) - 0.55).abs() < 1e-12);
        assert_eq!(s.at(100), 0.1);
        assert_eq!(s.at(1000), 0.1);
    }

    #[test]
    fn constant_schedule() {
        let s = EpsilonSchedule::constant(0.0);
        assert_eq!(s.at(0), 0.0);
        assert_eq!(s.at(99), 0.0);
    }

    #[test]
    #[should_panic(expected = "0 <= end <= start")]
    fn invalid_schedule_panics() {
        let _ = EpsilonSchedule::linear(0.1, 0.5, 10);
    }
}
