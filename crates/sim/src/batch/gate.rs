//! The one rule that decides whether epoch work fans out across the pool
//! (see "An epoch fans out only when its cells pay for the wake-up" in the
//! module docs of [`super`]).

use dpdp_pool::ThreadPool;
use std::sync::OnceLock;

/// The size of an epoch, in cells, from which its stages fan out across
/// the scoring pool: its orders times its active vehicles, known before
/// classification. A smaller epoch's classification, schedule-cache
/// refresh and scoring run inline on the caller, as at width 1, because
/// waking a worker and joining it back costs more than it saves there.
/// Decisions are the same either way: every fan-out fills slot `i` with
/// `f(i)` at any width.
///
/// Set from a measured sweep at widths 1 and 2 on a 2-core host: the metro
/// day's buffered epochs (up to 9 984 cells) ran slower fanned out than
/// inline at every gate that let them fan out, and one-order epochs (8 to
/// 256 cells) ran up to ≈ 3× slower. That is the low side: the gate sits
/// a factor of ten above it. The high side is not measured — on that host
/// the megacity day (epochs from 1.01 M cells, which all fan out) ran no
/// faster at width 2 than at width 1, so no epoch size was seen to gain.
pub const FAN_OUT_MIN_CELLS: usize = 100_000;

/// The pool an epoch of `cells` cells runs its stages on: `pool` from
/// [`FAN_OUT_MIN_CELLS`] on, else a serial pool, which runs every closure
/// inline on the caller. The one rule every per-epoch fan-out reads.
pub(super) fn fan_out(pool: &ThreadPool, cells: usize) -> &ThreadPool {
    static INLINE: OnceLock<ThreadPool> = OnceLock::new();
    if cells >= FAN_OUT_MIN_CELLS {
        pool
    } else {
        INLINE.get_or_init(ThreadPool::serial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_fans_out_from_the_gate_on() {
        let wide = ThreadPool::new(2);
        let below = fan_out(&wide, FAN_OUT_MIN_CELLS - 1);
        assert!(!below.is_parallel(), "one cell below the gate runs inline");
        let at = fan_out(&wide, FAN_OUT_MIN_CELLS);
        assert!(std::ptr::eq(at, &wide), "the gate itself fans out");
        let serial = ThreadPool::serial();
        assert!(!fan_out(&serial, FAN_OUT_MIN_CELLS).is_parallel());
    }
}
