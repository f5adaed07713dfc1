//! Incremental O(n²) insertion evaluation: prefix/suffix schedule caching.
//!
//! The naive Algorithm 2 sweep ([`crate::enumerate_insertions`]) clones the
//! route and re-simulates it from scratch for every one of the
//! `(n+1)(n+2)/2` pickup/delivery position pairs — O(n) work and two heap
//! allocations per candidate, O(n³) per `(order, vehicle)` pair. This module
//! removes the per-candidate re-simulation:
//!
//! 1. **Forward pass** ([`ScheduleCache::build`], once per view): walks the
//!    base route exactly like [`crate::simulate_schedule`], recording per
//!    stop the arrival/departure times, the load after the stop, the wait
//!    absorbed at the stop and the cumulative route length. O(n).
//! 2. **Backward pass** (same call): per-position *deadline slack* — the
//!    largest delay that can be injected into the arrival at position `p`
//!    without violating any downstream delivery deadline. Waits at pickups
//!    absorb delay, so the recurrence is `slack[p] = slack[p+1] + wait_p`
//!    for pickups and `slack[p] = min(deadline_p - arrival_p, slack[p+1])`
//!    for deliveries (`slack[n] = ∞`: the depot return is unconstrained).
//!    O(n).
//! 3. **Sweep** ([`sweep_insertions`]): for each pickup position `i` the
//!    evaluator re-walks the route *once*, pushing the pickup's detour delay
//!    and extra load through stops `i..j`, so extending the delivery
//!    position `j` by one costs O(1): the delivery candidate is checked
//!    against the new order's own deadline, and everything *after* `j` is
//!    checked with a single comparison against the cached `slack[j]`.
//!    Position pairs that provably violate the LIFO stack discipline are
//!    pruned without evaluation: a base delivery reached while the new
//!    cargo is on top of the stack kills every later `j` for that `i`.
//!
//! Total: O(n²) per `(order, vehicle)` pair with no allocation at all once
//! the cache is built — down from O(n³) with O(n²) allocations — and the
//! cache is reusable across every order of a decision epoch (see
//! `dpdp_sim::DecisionBatch`).
//!
//! # Memory layout: struct of arrays + batched leg tables
//!
//! The cache stores its per-stop quantities as parallel flat arrays (one
//! `Vec<f64>` per field — arrivals, departures, loads, slacks, creation
//! times, deadlines, quantities, cumulative lengths — plus a node vector
//! and a pickup/delivery mask) rather than a vector of per-stop records.
//! The sweep's hot loops each touch only two or three of those fields, so
//! the SoA layout turns every scan into contiguous, cache-line-dense,
//! vectorizable traversals instead of strided walks over interleaved
//! records.
//!
//! Leg quantities are batched exactly where batching amortizes real reuse,
//! and stay lazy where it would not:
//!
//! * **Base legs** (`d(prev_i, next_i)` and their travel times) are
//!   persisted *in the cache* at build time ([`dpdp_net::RoadNetwork::
//!   leg_distances`] + [`dpdp_net::FleetConfig::travel_times_secs`], plus
//!   the final home-to-depot leg), so every sweep of the epoch reads them
//!   for free — the cost is amortized across all probe orders of the
//!   vehicle, not just across positions of one sweep.
//! * **Probe legs** (pickup and delivery detour legs) stay lazy scalar
//!   calls like the reference path, evaluated only past the capacity /
//!   deadline / LIFO prunes. Batching them eagerly was measured to be a
//!   net loss: the sweep is pruning-dominated, so most positions never
//!   read their probe legs, and an eager per-sweep table fill (five tables,
//!   or even the two delivery tables alone) cost more than the scalar
//!   reads it replaced on the metro-style fixtures. Only quantities reused
//!   across the whole sweep (`d(pickup, delivery)`, `d(delivery, depot)`)
//!   are hoisted.
//!
//! Each cached leg entry is the identical f64 the scalar
//! [`dpdp_net::RoadNetwork::distance`] / [`dpdp_net::FleetConfig::
//! travel_time`] calls produce and all sums/comparisons keep the order of
//! the scalar walk, so the tables change no bit of any score: a base-leg
//! travel time is a single array load instead of a matrix read and a
//! division on every segment advance, and the sweep itself allocates
//! nothing.
//!
//! All sweep time arithmetic happens on raw f64 seconds: `TimePoint` /
//! `TimeDelta` are exact newtypes over finite f64 seconds whose operators
//! are plain f64 ops, so unwrapping them changes no bit of any result.
//!
//! # Determinism and parity with the naive enumerator
//!
//! The sweep is *bit-deterministic* (pure f64 arithmetic in a fixed order,
//! independent of thread count) and is kept in lockstep with the naive
//! reference path:
//!
//! * the prefix quantities (arrivals, departures, loads, cumulative length)
//!   are accumulated in exactly the order [`crate::simulate_schedule`] uses,
//!   so they are bit-identical to the naive walk;
//! * in-segment checks (capacity with the extra load, deadlines under the
//!   pickup detour delay, LIFO depth) re-walk the touched stops with the
//!   same operations the simulator performs, so they are bit-identical too.
//!   The one step that is mathematically equivalent but *not* bitwise
//!   equal to re-simulation is the suffix check: a single
//!   `delay <= slack[j]` comparison stands in for re-deriving every
//!   downstream arrival, so on a knife-edge instance where a downstream
//!   arrival lands within an ulp of its deadline (or a downstream load
//!   within an ulp of the capacity fuzz) the two paths can classify that
//!   candidate differently. A wrongful *accept* can only surface through
//!   the winner and is caught by the oracle fallback below; a wrongful
//!   *reject* is the one theoretical gap in the feasibility-set parity —
//!   never observed across the randomized suites, and impossible on
//!   instances whose arrivals do not graze deadlines at ulp precision;
//! * candidates are ranked by the classic detour delta
//!   `d(a,p) + d(p,b) − d(a,b)`; near-ties within a 1e-9 relative band —
//!   far above any f64 summation error, so outside the band delta order
//!   provably equals length order — are re-ranked on lazily computed exact
//!   length folds that are bit-identical to the naive candidate lengths,
//!   with first-wins tie-breaking in enumeration order. The selected
//!   winner is therefore **exactly** the one the naive
//!   `min_by(total_cmp)` picks, degenerate zero-detour ties included;
//! * the winner is validated by one final oracle walk over the spliced
//!   stop sequence ([`crate::simulate_insertion`]: the walk of
//!   [`crate::simulate_schedule`] with its timings discarded, so no route
//!   is built and nothing is allocated) — the simulator stays the
//!   authoritative oracle, and the winning length, which is that walk's
//!   total, is bit-identical to the naive path's by construction. In the
//!   (never observed) event the oracle rejects the sweep's winner,
//!   [`score_insertion_cached`] falls back to the naive reference
//!   wholesale.
//!
//! # Score, then materialise
//!
//! [`score_insertion_cached`] stops there: its result is an
//! [`InsertionScore`] — positions, the authoritative length, the feasible
//! and enumerated counts — and no [`crate::Route`] or [`crate::Schedule`]
//! exists yet. [`InsertionScore::materialise`] builds them, by splicing
//! the route and running the collecting oracle over it; it is the same
//! walk the score was validated by, so the schedule's `total_length` is
//! the score's `length` bit for bit. [`best_insertion_cached`] is the two
//! composed. Callers that rank many cells and adopt one (a decision
//! epoch) keep scores and materialise the winner.
//!
//! The randomized parity suite (`tests/incremental_parity.rs`) asserts
//! agreement on feasibility sets, winning positions and lengths across
//! hundreds of random routes, including in-service vehicles with non-empty
//! onboard stacks.

use crate::insertion::{best_insertion_naive, narrow, BestInsertion, InsertionScore};
use crate::schedule::simulate_insertion;
use crate::stop::StopAction;
use crate::view::VehicleView;
use dpdp_net::{FleetConfig, NodeId, Order, OrderId, RoadNetwork};

/// Cached forward/backward passes over a vehicle's base route, stored as
/// struct-of-arrays (see the module docs for the layout rationale).
///
/// Built once per [`VehicleView`] (O(n)); every insertion sweep for that
/// view — one per order in a decision epoch — then runs in O(n²) without
/// touching the oracle except to validate the winner.
/// [`ScheduleCache::rebuild`] re-runs the passes in place, reusing every
/// allocation, so per-epoch cache arrays can live in arena scratch.
///
/// The cache is plain data (`Send + Sync`), so one instance can be shared
/// across the scoring threads of a parallel epoch sweep.
#[derive(Debug, Clone, Default)]
pub struct ScheduleCache {
    /// Node of each stop.
    node: Vec<NodeId>,
    /// Pickup (true) / delivery (false) mask.
    is_pickup: Vec<bool>,
    /// Quantity moved at each stop (the order's quantity).
    quantity: Vec<f64>,
    /// Order creation time per stop, raw seconds (pickups wait for it).
    created: Vec<f64>,
    /// Order delivery deadline per stop, raw seconds.
    deadline: Vec<f64>,
    /// Arrival time per stop in the base schedule, raw seconds.
    arrival: Vec<f64>,
    /// Departure time per stop in the base schedule, raw seconds.
    departure: Vec<f64>,
    /// Load on board after each stop's action.
    load_after: Vec<f64>,
    /// Backward-pass deadline slack (seconds) per position.
    slack: Vec<f64>,
    /// Cumulative route length through each stop (anchor leg included),
    /// bit-identical to the prefix sums of the naive left-to-right fold.
    cum_len: Vec<f64>,
    /// Whether the base route itself simulates feasibly. When false the
    /// cached passes are meaningless and callers must fall back to the
    /// naive reference path.
    feasible: bool,
    /// Total base route length (anchor through all stops, home to depot),
    /// bit-identical to [`crate::Route::length`].
    base_length: f64,
    /// Load on board at the anchor (sum of the onboard stack).
    initial_load: f64,
    /// Persisted base-leg distances, batch-filled at build time: entry
    /// `i < n` is `d(prev_i, stops[i])` (with `prev_0` the anchor), entry
    /// `n` the final home-to-depot leg. On a feasible cache this is exactly
    /// the `d_base` table of every sweep (`n + 1` entries), so sweeps read
    /// it instead of re-gathering it — the fill cost is amortized across
    /// all probe orders of the epoch.
    leg_dist: Vec<f64>,
    /// `travel_time(leg_dist)` in raw seconds, same layout and
    /// amortization as [`ScheduleCache::leg_dist`]. Entry `n` is computed
    /// for layout symmetry; no sweep reads it (no candidate traverses the
    /// displaced depot leg).
    leg_tt: Vec<f64>,
    /// Build scratch: the LIFO stack replay.
    stack: Vec<(OrderId, f64)>,
}

impl ScheduleCache {
    /// Runs the forward and backward passes over `view`'s base route.
    ///
    /// Mirrors [`crate::simulate_schedule`] operation for operation, so the
    /// cached prefix quantities are bit-identical to the naive walk. A base
    /// route that does not simulate feasibly (which committed routes never
    /// are) yields a cache with [`ScheduleCache::is_feasible`] `== false`.
    pub fn build(
        view: &VehicleView,
        net: &RoadNetwork,
        fleet: &FleetConfig,
        orders: &[Order],
    ) -> ScheduleCache {
        let mut cache = ScheduleCache::default();
        cache.rebuild(view, net, fleet, orders);
        cache
    }

    /// Re-runs both passes in place, reusing every allocation. Equivalent to
    /// `*self = ScheduleCache::build(...)` but allocation-free once the
    /// arrays have grown to the route size — the workhorse behind per-epoch
    /// cache arenas.
    pub fn rebuild(
        &mut self,
        view: &VehicleView,
        net: &RoadNetwork,
        fleet: &FleetConfig,
        orders: &[Order],
    ) {
        self.clear();
        self.initial_load = view.onboard.iter().map(|(_, q)| q).sum();
        let stops = view.route.stops();
        let n = stops.len();

        // Batched base-leg tables: node[i] = stops[i].node and
        // leg_dist[i] = d(prev_i, node[i]) with prev_0 the anchor, filled
        // through the contiguous row kernels. Each entry is the identical
        // matrix element the scalar walk reads, in the same order.
        self.node.extend(stops.iter().map(|s| s.node));
        self.leg_dist.resize(n, 0.0);
        if n > 0 {
            self.leg_dist[0] = net.distance(view.anchor_node, self.node[0]);
            net.leg_distances(
                &self.node[..n - 1],
                &self.node[1..],
                &mut self.leg_dist[1..],
            );
        }
        self.leg_tt.resize(n, 0.0);
        fleet.travel_times_secs(&self.leg_dist, &mut self.leg_tt);

        // Forward pass: the exact walk of `simulate_schedule`, on raw f64
        // seconds (TimePoint/TimeDelta ops are plain f64 ops, so the
        // unwrapped arithmetic is bit-identical).
        let service = fleet.service_time.seconds();
        let mut node = view.anchor_node;
        let mut time = view.anchor_time.seconds();
        self.stack.extend_from_slice(&view.onboard);
        let mut load = self.initial_load;
        let mut total_length = 0.0;
        for (p, &stop) in stops.iter().enumerate() {
            total_length += self.leg_dist[p];
            time += self.leg_tt[p];
            node = stop.node;
            let arrival = time;
            let Some(order) = lookup(orders, stop.action.order()) else {
                return; // UnknownOrder: base infeasible.
            };
            let (service_start, is_pickup) = match stop.action {
                StopAction::Pickup(id) => {
                    // `arrival.max(order.created)`, unwrapped.
                    let created = order.created.seconds();
                    let start = if arrival >= created { arrival } else { created };
                    let new_load = load + order.quantity;
                    if new_load > fleet.capacity + 1e-9 {
                        return; // Capacity: base infeasible.
                    }
                    self.stack.push((id, order.quantity));
                    load = new_load;
                    (start, true)
                }
                StopAction::Delivery(id) => {
                    if arrival > order.deadline.seconds() {
                        return; // TimeWindow: base infeasible.
                    }
                    match self.stack.last() {
                        Some(&(top, qty)) if top == id => {
                            self.stack.pop();
                            load -= qty;
                        }
                        _ => return, // LIFO: base infeasible.
                    }
                    (arrival, false)
                }
            };
            time = service_start + service;
            self.is_pickup.push(is_pickup);
            self.quantity.push(order.quantity);
            self.created.push(order.created.seconds());
            self.deadline.push(order.deadline.seconds());
            self.arrival.push(arrival);
            self.departure.push(time);
            self.load_after.push(load);
            self.slack.push(f64::INFINITY);
            self.cum_len.push(total_length);
        }
        if !self.stack.is_empty() {
            return; // IncompleteRoute: base infeasible.
        }
        let depot_leg = net.distance(node, view.depot);
        total_length += depot_leg;
        self.leg_dist.push(depot_leg);
        self.leg_tt.push(fleet.travel_time(depot_leg).seconds());
        self.base_length = total_length;

        // Backward pass: deadline slack per position. Waits at pickups
        // absorb injected delay, deliveries cap it by their own deadline.
        let mut slack = f64::INFINITY;
        for p in (0..n).rev() {
            if self.is_pickup[p] {
                let wait = (self.departure[p] - service) - self.arrival[p];
                slack += wait; // ∞ + wait = ∞
            } else {
                slack = slack.min(self.deadline[p] - self.arrival[p]);
            }
            self.slack[p] = slack;
        }

        self.feasible = true;
    }

    /// Resets every array (capacity retained) and scalar field.
    fn clear(&mut self) {
        self.node.clear();
        self.is_pickup.clear();
        self.quantity.clear();
        self.created.clear();
        self.deadline.clear();
        self.arrival.clear();
        self.departure.clear();
        self.load_after.clear();
        self.slack.clear();
        self.cum_len.clear();
        self.leg_dist.clear();
        self.leg_tt.clear();
        self.stack.clear();
        self.feasible = false;
        self.base_length = 0.0;
        self.initial_load = 0.0;
    }

    /// Whether the base route simulates feasibly. When false every cached
    /// quantity is meaningless and insertion evaluation must go through the
    /// naive reference path (see [`score_insertion_cached`]).
    #[inline]
    pub fn is_feasible(&self) -> bool {
        self.feasible
    }

    /// Total base route length `d_{t,k}` (km, anchor through all stops and
    /// home to the depot), bit-identical to [`crate::Route::length`]. Only
    /// meaningful when [`ScheduleCache::is_feasible`] holds.
    #[inline]
    pub fn base_length(&self) -> f64 {
        self.base_length
    }

    /// Number of stops of the cached base route.
    #[inline]
    pub fn len(&self) -> usize {
        self.arrival.len()
    }

    /// Whether the cached base route has no stops.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arrival.is_empty()
    }

    /// Backward-pass deadline slack (seconds) at position `p`: the maximum
    /// delay injectable into the arrival at `p` without violating any
    /// delivery deadline from `p` onward.
    ///
    /// # Panics
    /// Panics if `p >= len()`.
    #[inline]
    pub fn slack(&self, p: usize) -> f64 {
        self.slack[p]
    }
}

/// One feasible insertion position pair found by [`sweep_insertions`],
/// scored without materializing the route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredInsertion {
    /// Index (in the base stop list) where the pickup is inserted.
    pub pickup_pos: usize,
    /// Index (in the base stop list) before which the delivery is inserted;
    /// `>= pickup_pos`.
    pub delivery_pos: usize,
    /// Resulting route length: base length plus the detour delta
    /// `d(a,p) + d(p,b) − d(a,b)`. Mathematically equal to the simulated
    /// candidate length; may differ from it by floating-point rounding, so
    /// the winner's authoritative length comes from the final oracle walk
    /// ([`InsertionScore::length`]).
    pub length: f64,
}

/// Outcome of an incremental insertion sweep (see [`sweep_best`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsertionSweep {
    /// The shortest feasible insertion under [`f64::total_cmp`] with
    /// first-wins tie-breaking in enumeration order, if any.
    pub best: Option<ScoredInsertion>,
    /// Number of feasible position pairs.
    pub num_feasible: usize,
    /// Number of enumerated position pairs, `(n+1)(n+2)/2`.
    pub num_enumerated: usize,
}

/// Looks up an order in a dense-by-id order slice (the exact check
/// `simulate_schedule` performs; a miss makes every candidate infeasible).
///
/// This *is* the per-epoch order index: `orders` is indexed directly by
/// `OrderId`, so the resolution is O(1) — one bounds check, one load, one
/// id compare — with no hashing or scanning anywhere on the hot path.
fn lookup(orders: &[Order], id: OrderId) -> Option<&Order> {
    orders.get(id.index()).filter(|o| o.id == id)
}

/// Evaluates every pickup/delivery position pair of `order` in `view`'s
/// base route from the cached passes, calling `on_feasible` for each
/// feasible pair in enumeration order (pickup position outer, delivery
/// position inner) and returning the number of feasible pairs.
///
/// This is the allocation-free O(n²) core of the incremental evaluator;
/// [`sweep_best`] layers argmin selection on top and
/// [`score_insertion_cached`] oracle-validates the winner.
///
/// `cache` must have been built from the same `view` (and the same
/// network/fleet/orders) and be feasible; see
/// [`ScheduleCache::is_feasible`].
///
/// # Panics
/// May panic (index out of range) if `cache` was built from a different
/// route than `view`'s.
pub fn sweep_insertions(
    cache: &ScheduleCache,
    view: &VehicleView,
    order: &Order,
    net: &RoadNetwork,
    fleet: &FleetConfig,
    orders: &[Order],
    mut on_feasible: impl FnMut(ScoredInsertion),
) -> usize {
    debug_assert!(cache.feasible, "sweep over an infeasible base route");
    debug_assert_eq!(cache.len(), view.route.len(), "cache/view mismatch");
    // The naive walk resolves every stop through the dense order table, the
    // inserted pair included: replicate the lookup (node positions come
    // from the argument, quantities and times from the table) and reject
    // everything on a miss, exactly like the per-candidate `UnknownOrder`.
    let Some(probe) = lookup(orders, order.id) else {
        return 0;
    };
    let n = cache.len();

    // Probe scalars, unwrapped to raw seconds once. Per-position probe
    // legs stay lazy (scalar matrix reads, identical to the reference
    // calls): the walk is pruning-dominated, so most positions never touch
    // them — see the module docs for the measured rationale.
    let d_pd = net.distance(order.pickup, order.delivery);
    let tt_pd = fleet.travel_time(d_pd).seconds();
    let d_d_depot = net.distance(order.delivery, view.depot);
    let created = probe.created.seconds();
    let deadline = probe.deadline.seconds();
    let service = fleet.service_time.seconds();
    let anchor_dep = view.anchor_time.seconds();
    let cap = fleet.capacity + 1e-9;
    let mut num_feasible = 0;

    for i in 0..=n {
        // State at the insertion point, straight from the prefix arrays.
        let (prev_dep, load_before, prev_node) = if i > 0 {
            (
                cache.departure[i - 1],
                cache.load_after[i - 1],
                cache.node[i - 1],
            )
        } else {
            (anchor_dep, cache.initial_load, view.anchor_node)
        };
        let new_load = load_before + probe.quantity;
        if new_load > cap {
            // The pickup itself violates capacity: every `j` for this `i`
            // is infeasible — pruned before touching the distance matrix.
            continue;
        }
        // Pickup legs stay lazy: each is read exactly once per position
        // (see the module docs), identical to the scalar reference calls.
        let d_to_p = net.distance(prev_node, order.pickup);
        let arr_p = prev_dep + fleet.travel_time(d_to_p).seconds();
        // `arr_p.max(probe.created) + service_time`, unwrapped.
        let dep_p = (if arr_p >= created { arr_p } else { created }) + service;

        // Candidate (i, i): the delivery immediately follows the pickup.
        // Feasible iff NOT(arrival > deadline), the naive reject condition;
        // times are finite (TimePoint asserts it), so `<=` is equivalent.
        let arr_d = dep_p + tt_pd;
        if arr_d <= deadline {
            let d_from_d = if i == n {
                d_d_depot
            } else {
                net.distance(order.delivery, cache.node[i])
            };
            let suffix_ok = i == n || {
                let dep_d = arr_d + service;
                let arr_next = dep_d + fleet.travel_time(d_from_d).seconds();
                (arr_next - cache.arrival[i]) <= cache.slack[i]
            };
            if suffix_ok {
                let delta = d_to_p + d_pd + d_from_d - cache.leg_dist[i];
                num_feasible += 1;
                on_feasible(ScoredInsertion {
                    pickup_pos: i,
                    delivery_pos: i,
                    length: cache.base_length + delta,
                });
            }
        }
        if i == n {
            continue;
        }

        // Candidates (i, j > i): walk the segment once, advancing the
        // exact running state (time, load, LIFO depth) one stop per `j`.
        let d_from_p = net.distance(order.pickup, cache.node[i]);
        let tt_from_p = fleet.travel_time(d_from_p).seconds();
        let delta_pickup = d_to_p + d_from_p - cache.leg_dist[i];
        let mut cur_dep = dep_p;
        let mut load = new_load;
        // Number of base cargo items stacked on top of the new order's
        // cargo: the delivery can only be placed while this is zero.
        let mut depth: usize = 0;
        for j in (i + 1)..=n {
            // Advance through base stop j-1 under the injected detour. The
            // leg into it leaves the pickup on the first step and then
            // follows the cached base legs (`leg_tt[j-1]` is exactly
            // `travel_time(d(stops[j-2], stops[j-1]))`).
            let p = j - 1;
            let leg_tt = if j == i + 1 {
                tt_from_p
            } else {
                cache.leg_tt[p]
            };
            let arr = cur_dep + leg_tt;
            let service_start = if cache.is_pickup[p] {
                let segment_load = load + cache.quantity[p];
                if segment_load > cap {
                    // This stop's pickup overloads for every j beyond it.
                    break;
                }
                load = segment_load;
                depth += 1;
                // `arr.max(created[p])`, unwrapped.
                if arr >= cache.created[p] {
                    arr
                } else {
                    cache.created[p]
                }
            } else {
                if arr > cache.deadline[p] {
                    // The detour makes this delivery late for every j
                    // beyond it.
                    break;
                }
                if depth == 0 {
                    // LIFO prune: the base delivery would pop the new
                    // order's cargo — provably infeasible for every j
                    // beyond this stop.
                    break;
                }
                depth -= 1;
                load -= cache.quantity[p];
                arr
            };
            cur_dep = service_start + service;

            if depth != 0 {
                // A base item sits on top of the new cargo: delivering
                // here would violate LIFO. Later j may still be feasible.
                continue;
            }
            // Candidate (i, j): insert the delivery after base stop j-1.
            let d_to_d = net.distance(cache.node[p], order.delivery);
            let arr_d = cur_dep + fleet.travel_time(d_to_d).seconds();
            if arr_d > deadline {
                continue;
            }
            let d_from_d = if j == n {
                d_d_depot
            } else {
                net.distance(order.delivery, cache.node[j])
            };
            let suffix_ok = j == n || {
                let dep_d = arr_d + service;
                let arr_next = dep_d + fleet.travel_time(d_from_d).seconds();
                (arr_next - cache.arrival[j]) <= cache.slack[j]
            };
            if suffix_ok {
                let delta_delivery = d_to_d + d_from_d - cache.leg_dist[j];
                num_feasible += 1;
                on_feasible(ScoredInsertion {
                    pickup_pos: i,
                    delivery_pos: j,
                    length: cache.base_length + (delta_pickup + delta_delivery),
                });
            }
        }
    }
    num_feasible
}

/// The candidate's route length computed as the exact naive fold: the leg
/// distances of `anchor -> stops[..i] -> pickup -> stops[i..j] -> delivery
/// -> stops[j..] -> depot` accumulated left to right, which is
/// operation-for-operation the sum [`crate::simulate_schedule`] builds —
/// bit-identical to the naive candidate's `total_length`. The prefix
/// through `stops[..i]` is read from the cache's cumulative-length array
/// (itself accumulated in the identical order), so the fold is O(n − i);
/// used only to resolve ranking near-ties.
fn exact_candidate_length(
    cache: &ScheduleCache,
    view: &VehicleView,
    pickup: NodeId,
    delivery: NodeId,
    net: &RoadNetwork,
    i: usize,
    j: usize,
) -> f64 {
    let stops = view.route.stops();
    let (mut prev, mut total) = if i > 0 {
        (cache.node[i - 1], cache.cum_len[i - 1])
    } else {
        (view.anchor_node, 0.0)
    };
    let leg = |next: NodeId, total: &mut f64, prev: &mut NodeId| {
        *total += net.distance(*prev, next);
        *prev = next;
    };
    leg(pickup, &mut total, &mut prev);
    for s in &stops[i..j] {
        leg(s.node, &mut total, &mut prev);
    }
    leg(delivery, &mut total, &mut prev);
    for s in &stops[j..] {
        leg(s.node, &mut total, &mut prev);
    }
    leg(view.depot, &mut total, &mut prev);
    total
}

/// Runs [`sweep_insertions`] and keeps the shortest feasible candidate,
/// selecting **exactly** the winner the naive `min_by(total_cmp)` over the
/// full enumeration picks (first-wins on ties in enumeration order).
///
/// Ranking is two-tier: candidates whose detour-delta scores differ by more
/// than a 1e-9 relative band — orders of magnitude above any f64 summation
/// error, so delta order provably equals exact-length order there — are
/// compared on the O(1) scores; candidates inside the band (genuine ties,
/// e.g. zero-detour insertions at coincident nodes, whose delta roundings
/// can disagree by an ulp) are re-ranked on lazily computed
/// exact naive-order length folds, which are bit-identical to the naive
/// lengths. The streaming strict-less comparison then reproduces the naive
/// argmin decision for every pair.
pub fn sweep_best(
    cache: &ScheduleCache,
    view: &VehicleView,
    order: &Order,
    net: &RoadNetwork,
    fleet: &FleetConfig,
    orders: &[Order],
) -> InsertionSweep {
    let n = view.route.len();
    // Running winner plus its lazily materialized exact length.
    let mut best: Option<(ScoredInsertion, Option<f64>)> = None;
    let num_feasible = sweep_insertions(cache, view, order, net, fleet, orders, |cand| {
        let Some((winner, winner_exact)) = &mut best else {
            best = Some((cand, None));
            return;
        };
        let eps = 1e-9 * winner.length.abs().max(1.0);
        let (replace, cand_exact) = if cand.length < winner.length - eps {
            (true, None)
        } else if cand.length > winner.length + eps {
            (false, None)
        } else {
            // Near tie (or non-finite scores): decide exactly as the naive
            // reference would, on bit-identical lengths under total_cmp
            // with first-wins (strict less replaces).
            let we = *winner_exact.get_or_insert_with(|| {
                exact_candidate_length(
                    cache,
                    view,
                    order.pickup,
                    order.delivery,
                    net,
                    winner.pickup_pos,
                    winner.delivery_pos,
                )
            });
            let ce = exact_candidate_length(
                cache,
                view,
                order.pickup,
                order.delivery,
                net,
                cand.pickup_pos,
                cand.delivery_pos,
            );
            (ce.total_cmp(&we) == std::cmp::Ordering::Less, Some(ce))
        };
        if replace {
            best = Some((cand, cand_exact));
        }
    });
    InsertionSweep {
        best: best.map(|(cand, _)| cand),
        num_feasible,
        num_enumerated: (n + 1) * (n + 2) / 2,
    }
}

/// The incremental evaluator: finds the shortest feasible insertion from
/// the cached passes and returns it as positions, building no route.
///
/// The sweep's winner is validated by the oracle walk over the spliced stop
/// sequence ([`simulate_insertion`] — allocation-free), and the score's
/// `length` is that walk's total, i.e. exactly the `total_length` the
/// route has once [`InsertionScore::materialise`] simulates it.
///
/// An infeasible `cache`, a probe order whose id already appears in the
/// route or on board (the LIFO depth pruning assumes distinct ids; Algorithm
/// 2 never re-inserts a routed order), or the (never observed) event of the
/// oracle rejecting the sweep's winner all fall back to the naive reference
/// [`best_insertion_naive`] and reduce its winner to a score, so the result
/// is always oracle-validated.
pub fn score_insertion_cached(
    cache: &ScheduleCache,
    view: &VehicleView,
    order: &Order,
    net: &RoadNetwork,
    fleet: &FleetConfig,
    orders: &[Order],
) -> Option<InsertionScore> {
    let naive = || best_insertion_naive(view, order, net, fleet, orders).map(|b| b.score());
    let duplicate = view
        .route
        .stops()
        .iter()
        .any(|s| s.action.order() == order.id)
        || view.onboard.iter().any(|&(id, _)| id == order.id);
    if !cache.feasible || duplicate {
        return naive();
    }
    let sweep = sweep_best(cache, view, order, net, fleet, orders);
    let scored = sweep.best?;
    let (pickup_pos, delivery_pos) = (scored.pickup_pos, scored.delivery_pos);
    match simulate_insertion(view, order, pickup_pos, delivery_pos, net, fleet, orders) {
        Ok(totals) => Some(InsertionScore {
            pickup_pos: narrow(pickup_pos),
            delivery_pos: narrow(delivery_pos),
            length: totals.total_length,
            num_feasible: narrow(sweep.num_feasible),
            num_enumerated: narrow(sweep.num_enumerated),
        }),
        // The oracle disagrees with the sweep (only reachable on
        // pathological float-boundary instances): defer to the reference
        // implementation wholesale.
        Err(_) => naive(),
    }
}

/// [`score_insertion_cached`] with the winner materialised: the engine
/// behind [`crate::best_insertion`].
pub fn best_insertion_cached(
    cache: &ScheduleCache,
    view: &VehicleView,
    order: &Order,
    net: &RoadNetwork,
    fleet: &FleetConfig,
    orders: &[Order],
) -> Option<BestInsertion> {
    score_insertion_cached(cache, view, order, net, fleet, orders)
        .map(|score| score.materialise(view, order, net, fleet, orders))
}

#[cfg(test)]
mod tests;
