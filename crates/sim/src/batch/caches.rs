//! The episode's schedule caches: one slot per vehicle, rebuilt only when
//! the view it was built from changed.
//!
//! A [`ScheduleCache`] is a pure function of a few fields of a vehicle
//! view — anchor node, anchor time, depot, the cargo on board and the
//! remaining stops — and of what an episode holds fixed: the network, the
//! fleet configuration and the order table's entries (an order's id names
//! the same order for the whole episode; streamed orders only append). So
//! a slot that records the view fields it was built from, its *key*, can
//! be kept from one epoch to the next and rebuilt only when the vehicle's
//! view no longer matches. A vehicle driving a long leg, whose view the
//! fleet advance leaves alone, keeps its cache for as many epochs as the
//! leg lasts. An idle vehicle's anchor time follows the clock, so its key
//! changes every epoch.
//!
//! The key is held in the slot's own reused buffers and compared the way
//! [`EpochScratch::group_twins`](super::EpochScratch) compares twins: the
//! anchor time bit for bit, the quantities on board by their bits.

use dpdp_net::{NodeId, OrderId};
use dpdp_pool::ThreadPool;
use dpdp_routing::{RoutePlanner, ScheduleCache, Stop, VehicleView};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The view fields a slot's cache was built from (see the module docs).
#[derive(Debug, Default)]
struct CacheKey {
    /// Anchor node, anchor-time bits and depot; `None` while the slot has
    /// never been built.
    anchor: Option<(NodeId, u64, NodeId)>,
    /// The cargo on board, quantities as bits.
    onboard: Vec<(OrderId, u64)>,
    /// The remaining stops.
    stops: Vec<Stop>,
}

impl CacheKey {
    fn anchor_of(view: &VehicleView) -> (NodeId, u64, NodeId) {
        let time = view.anchor_time.seconds().to_bits();
        (view.anchor_node, time, view.depot)
    }

    fn matches(&self, view: &VehicleView) -> bool {
        self.anchor == Some(Self::anchor_of(view))
            && self.stops == view.route.stops()
            && self.onboard.len() == view.onboard.len()
            && (self.onboard.iter().zip(&view.onboard)).all(|(a, b)| *a == (b.0, b.1.to_bits()))
    }

    fn set(&mut self, view: &VehicleView) {
        self.anchor = Some(Self::anchor_of(view));
        self.onboard.clear();
        (self.onboard).extend(view.onboard.iter().map(|&(o, q)| (o, q.to_bits())));
        self.stops.clear();
        self.stops.extend_from_slice(view.route.stops());
    }
}

/// One vehicle's schedule cache and the key it was built from.
#[derive(Debug, Default)]
pub(super) struct CacheSlot {
    cache: ScheduleCache,
    key: CacheKey,
}

impl CacheSlot {
    /// The cache, as last built.
    #[inline]
    pub(super) fn cache(&self) -> &ScheduleCache {
        &self.cache
    }

    /// Builds the cache for `view` in place and keys the slot with it.
    pub(super) fn rebuild(&mut self, planner: &RoutePlanner<'_>, view: &VehicleView) {
        planner.cache_into(&mut self.cache, view);
        self.key.set(view);
    }

    /// Rebuilds the cache unless it was built from a view equal to `view`
    /// in every field it reads; returns whether it rebuilt.
    fn refresh(&mut self, planner: &RoutePlanner<'_>, view: &VehicleView) -> bool {
        let stale = !self.key.matches(view);
        if stale {
            self.rebuild(planner, view);
        }
        stale
    }
}

/// Brings the slot of every vehicle `live` selects up to date with its
/// view, fanning the slots out across `pool` in fixed chunks, and returns
/// how many it rebuilt. Each task owns a disjoint `chunks_mut` slice and a
/// slot's content depends only on its own view and key, so the result is
/// independent of task scheduling — bit-identical at any thread count.
pub(super) fn refresh(
    slots: &mut [CacheSlot],
    live: &[bool],
    planner: &RoutePlanner<'_>,
    views: &[VehicleView],
    pool: &ThreadPool,
) -> usize {
    let k_n = views.len();
    // The slots from `start` on, refreshed where live; how many rebuilt.
    let refresh_run = |start: usize, run: &mut [CacheSlot]| -> usize {
        (start..)
            .zip(run)
            .map(|(k, slot)| usize::from(live[k] && slot.refresh(planner, &views[k])))
            .sum()
    };
    if !pool.is_parallel() || k_n == 0 {
        return refresh_run(0, slots);
    }
    let built = AtomicUsize::new(0);
    let chunk = k_n.div_ceil((pool.threads() * 4).min(k_n));
    pool.scope(|scope| {
        for (c, run) in slots.chunks_mut(chunk).enumerate() {
            let (built, refresh_run) = (&built, &refresh_run);
            scope.spawn(move || {
                // A count, read only after the scope has joined every task.
                built.fetch_add(refresh_run(c * chunk, run), Ordering::Relaxed);
            });
        }
    });
    built.into_inner()
}
