//! Simulation time.
//!
//! All times are expressed in **seconds since the start of the episode**
//! (a 24-hour day in the paper). [`TimePoint`] is an absolute instant,
//! [`TimeDelta`] a signed duration, and [`IntervalGrid`] discretises the day
//! into `T` equal-duration intervals exactly as Definition 1 of the paper
//! (144 ten-minute intervals for a day).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Number of seconds in a 24-hour day.
pub const SECONDS_PER_DAY: f64 = 86_400.0;

/// An absolute instant, in seconds since the start of the episode.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct TimePoint(f64);

/// A signed duration, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct TimeDelta(f64);

impl TimePoint {
    /// The start of the episode (midnight).
    pub const ZERO: TimePoint = TimePoint(0.0);

    /// Creates a time point from seconds since episode start.
    ///
    /// # Panics
    /// Panics if `seconds` is not finite.
    #[inline]
    pub fn from_seconds(seconds: f64) -> Self {
        assert!(seconds.is_finite(), "TimePoint must be finite");
        TimePoint(seconds)
    }

    /// Creates a time point from hours since episode start.
    #[inline]
    pub fn from_hours(hours: f64) -> Self {
        Self::from_seconds(hours * 3600.0)
    }

    /// Seconds since episode start.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// Hours since episode start.
    #[inline]
    pub fn hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// The later of two time points.
    #[inline]
    pub fn max(self, other: TimePoint) -> TimePoint {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two time points.
    #[inline]
    pub fn min(self, other: TimePoint) -> TimePoint {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl TimeDelta {
    /// A zero-length duration.
    pub const ZERO: TimeDelta = TimeDelta(0.0);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    /// Panics if `seconds` is not finite.
    #[inline]
    pub fn from_seconds(seconds: f64) -> Self {
        assert!(seconds.is_finite(), "TimeDelta must be finite");
        TimeDelta(seconds)
    }

    /// Creates a duration from minutes.
    #[inline]
    pub fn from_minutes(minutes: f64) -> Self {
        Self::from_seconds(minutes * 60.0)
    }

    /// Creates a duration from hours.
    #[inline]
    pub fn from_hours(hours: f64) -> Self {
        Self::from_seconds(hours * 3600.0)
    }

    /// Duration in seconds.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// Whether this duration is non-negative.
    #[inline]
    pub fn is_non_negative(self) -> bool {
        self.0 >= 0.0
    }
}

impl Add<TimeDelta> for TimePoint {
    type Output = TimePoint;
    #[inline]
    fn add(self, rhs: TimeDelta) -> TimePoint {
        TimePoint(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for TimePoint {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<TimePoint> for TimePoint {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: TimePoint) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl Sub<TimeDelta> for TimePoint {
    type Output = TimePoint;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> TimePoint {
        TimePoint(self.0 - rhs.0)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl Mul<f64> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn mul(self, rhs: f64) -> TimeDelta {
        TimeDelta(self.0 * rhs)
    }
}

impl Div<f64> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn div(self, rhs: f64) -> TimeDelta {
        TimeDelta(self.0 / rhs)
    }
}

impl fmt::Display for TimePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.0.max(0.0) as u64;
        write!(
            f,
            "{:02}:{:02}:{:02}",
            total / 3600,
            (total % 3600) / 60,
            total % 60
        )
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}s", self.0)
    }
}

/// A half-open service window `[earliest, latest)` for an order: the earliest
/// pickup time and the latest delivery time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWindow {
    /// Earliest time a vehicle may pick up the cargo (order creation time).
    pub earliest: TimePoint,
    /// Latest time the cargo must be delivered by.
    pub latest: TimePoint,
}

impl TimeWindow {
    /// Creates a window, validating `earliest <= latest`.
    pub fn new(earliest: TimePoint, latest: TimePoint) -> Result<Self, crate::NetError> {
        if earliest > latest {
            return Err(crate::NetError::InvalidTimeWindow {
                earliest: earliest.seconds(),
                latest: latest.seconds(),
            });
        }
        Ok(TimeWindow { earliest, latest })
    }

    /// Window length.
    #[inline]
    pub fn length(&self) -> TimeDelta {
        self.latest - self.earliest
    }

    /// Whether `t` lies within the window (inclusive on both ends).
    #[inline]
    pub fn contains(&self, t: TimePoint) -> bool {
        t >= self.earliest && t <= self.latest
    }
}

/// Discretisation of the episode horizon into `T` equal-duration intervals
/// (Definition 1 of the paper; the paper uses `T = 144` ten-minute intervals
/// over a 24-hour day).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalGrid {
    horizon: f64,
    num_intervals: usize,
}

impl IntervalGrid {
    /// Creates a grid over `horizon` seconds split into `num_intervals`
    /// left-closed right-open intervals.
    ///
    /// # Panics
    /// Panics if `num_intervals == 0` or `horizon` is not strictly positive.
    pub fn new(horizon: TimeDelta, num_intervals: usize) -> Self {
        assert!(
            num_intervals > 0,
            "IntervalGrid needs at least one interval"
        );
        assert!(
            horizon.seconds() > 0.0,
            "IntervalGrid horizon must be positive"
        );
        IntervalGrid {
            horizon: horizon.seconds(),
            num_intervals,
        }
    }

    /// The paper's default grid: a 24-hour day in 144 ten-minute intervals.
    pub fn paper_default() -> Self {
        Self::new(TimeDelta::from_seconds(SECONDS_PER_DAY), 144)
    }

    /// Number of intervals `T`.
    #[inline]
    pub fn num_intervals(&self) -> usize {
        self.num_intervals
    }

    /// Duration of one interval.
    #[inline]
    pub fn interval_length(&self) -> TimeDelta {
        TimeDelta::from_seconds(self.horizon / self.num_intervals as f64)
    }

    /// Total horizon covered by the grid.
    #[inline]
    pub fn horizon(&self) -> TimeDelta {
        TimeDelta::from_seconds(self.horizon)
    }

    /// Maps a time point to its interval index, clamping times outside the
    /// horizon to the first/last interval. Intervals are left-closed,
    /// right-open, matching Definition 1.
    #[inline]
    pub fn interval_of(&self, t: TimePoint) -> usize {
        if t.seconds() <= 0.0 {
            return 0;
        }
        // The 1e-9-interval nudge compensates floating-point undershoot for
        // times computed as exact interval boundaries (k * horizon / T),
        // so that `interval_of(interval_start(k)) == k` for every k.
        let idx = (t.seconds() / self.horizon * self.num_intervals as f64 + 1e-9) as usize;
        idx.min(self.num_intervals - 1)
    }

    /// The start time of interval `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= num_intervals`.
    #[inline]
    pub fn interval_start(&self, idx: usize) -> TimePoint {
        assert!(idx < self.num_intervals, "interval index out of range");
        TimePoint::from_seconds(idx as f64 * self.horizon / self.num_intervals as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = TimePoint::from_hours(10.0);
        let d = TimeDelta::from_minutes(30.0);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        assert_eq!(d + d, TimeDelta::from_hours(1.0));
        assert_eq!(d * 2.0, TimeDelta::from_hours(1.0));
        assert_eq!(TimeDelta::from_hours(1.0) / 2.0, d);
    }

    #[test]
    fn display_formats_clock_time() {
        assert_eq!(TimePoint::from_hours(10.5).to_string(), "10:30:00");
        assert_eq!(TimePoint::ZERO.to_string(), "00:00:00");
    }

    #[test]
    fn window_validation() {
        let a = TimePoint::from_hours(1.0);
        let b = TimePoint::from_hours(2.0);
        assert!(TimeWindow::new(a, b).is_ok());
        assert!(TimeWindow::new(b, a).is_err());
        let w = TimeWindow::new(a, b).unwrap();
        assert!(w.contains(TimePoint::from_hours(1.5)));
        assert!(w.contains(a));
        assert!(w.contains(b));
        assert!(!w.contains(TimePoint::from_hours(2.5)));
        assert_eq!(w.length(), TimeDelta::from_hours(1.0));
    }

    #[test]
    fn paper_grid_has_144_ten_minute_intervals() {
        let g = IntervalGrid::paper_default();
        assert_eq!(g.num_intervals(), 144);
        assert_eq!(g.interval_length(), TimeDelta::from_minutes(10.0));
    }

    #[test]
    fn interval_mapping_is_left_closed_right_open() {
        let g = IntervalGrid::paper_default();
        assert_eq!(g.interval_of(TimePoint::ZERO), 0);
        assert_eq!(g.interval_of(TimePoint::from_minutes_for_test(9.999)), 0);
        assert_eq!(g.interval_of(TimePoint::from_minutes_for_test(10.0)), 1);
        // Times at or past the horizon clamp to the last interval.
        assert_eq!(g.interval_of(TimePoint::from_hours(24.0)), 143);
        assert_eq!(g.interval_of(TimePoint::from_hours(30.0)), 143);
        // Negative times clamp to the first interval.
        assert_eq!(g.interval_of(TimePoint::from_seconds(-5.0)), 0);
    }

    #[test]
    fn interval_start_matches_interval_of() {
        let g = IntervalGrid::new(TimeDelta::from_hours(10.0), 20);
        for idx in 0..20 {
            assert_eq!(g.interval_of(g.interval_start(idx)), idx);
        }
    }

    impl TimePoint {
        fn from_minutes_for_test(m: f64) -> TimePoint {
            TimePoint::from_seconds(m * 60.0)
        }
    }

    #[test]
    #[should_panic]
    fn nonfinite_timepoint_panics() {
        let _ = TimePoint::from_seconds(f64::NAN);
    }
}
