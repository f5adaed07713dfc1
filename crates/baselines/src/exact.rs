//! Exact branch-and-bound solver for the **static** PDP relaxation.
//!
//! The paper compares its DRL dispatchers with the optimum of a three-index
//! MIP solved by Gurobi under the ideal assumption that all orders are known
//! a priori (Table I). Gurobi is commercial and not a dependency, so this
//! module stands in for it: a depth-first branch-and-bound that assigns orders one by one, branching
//! over **every vehicle and every feasible insertion position pair**, with
//!
//! * an incumbent initialised by a best-insertion greedy pass,
//! * pruning by the metric lower bound (inserting stops into a route never
//!   shortens it under a metric distance, so the current partial cost is
//!   admissible),
//! * symmetry breaking over identical unused vehicles (only the first
//!   unused vehicle per depot is branched on),
//! * an optional wall-clock budget; like the paper's MIP, instances beyond
//!   ~8 orders become intractable and the solver reports a non-optimal
//!   incumbent when the budget runs out.

use dpdp_net::{Instance, TimePoint, VehicleId};
use dpdp_routing::{
    enumerate_insertions, sweep_insertions, Route, RoutePlanner, ScheduleCache, Stop, VehicleView,
};
use std::time::{Duration, Instant};

/// Solver limits.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactConfig {
    /// Abort the search after this wall-clock budget, returning the best
    /// incumbent found (`optimal = false`).
    pub time_limit: Option<Duration>,
    /// Abort after exploring this many search nodes.
    pub node_limit: Option<u64>,
}

/// Result of an exact solve.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// Per-vehicle routes (dense by vehicle id).
    pub routes: Vec<Route>,
    /// Number of used vehicles.
    pub nuv: usize,
    /// Total travel length, km.
    pub ttl: f64,
    /// Total cost `mu * NUV + delta * TTL`.
    pub total_cost: f64,
    /// Whether the search space was exhausted (true) or a limit was hit.
    pub optimal: bool,
    /// Search nodes explored.
    pub nodes_explored: u64,
}

/// The branch-and-bound solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactSolver {
    /// Limits.
    pub config: ExactConfig,
}

struct Search<'a> {
    instance: &'a Instance,
    planner: RoutePlanner<'a>,
    deadline: Option<Instant>,
    node_limit: Option<u64>,
    nodes: u64,
    best_cost: f64,
    best_routes: Option<Vec<Route>>,
    truncated: bool,
}

impl ExactSolver {
    /// Unlimited exact solve (use only on tiny instances).
    pub fn new() -> Self {
        ExactSolver::default()
    }

    /// Solve with a wall-clock budget.
    pub fn with_time_limit(limit: Duration) -> Self {
        ExactSolver {
            config: ExactConfig {
                time_limit: Some(limit),
                node_limit: None,
            },
        }
    }

    /// Solves the static relaxation of `instance`: all orders visible from
    /// time zero, vehicles free to pre-position and wait. Returns `None` if
    /// not even the greedy pass can serve every order.
    pub fn solve(&self, instance: &Instance) -> Option<ExactSolution> {
        let planner = RoutePlanner::new(&instance.network, &instance.fleet, instance.orders());
        let mut search = Search {
            instance,
            planner,
            deadline: self.config.time_limit.map(|d| Instant::now() + d),
            node_limit: self.config.node_limit,
            nodes: 0,
            best_cost: f64::INFINITY,
            best_routes: None,
            truncated: false,
        };

        // Incumbent: greedy best-insertion (Baseline-1 style) on the static
        // problem.
        if let Some((routes, cost)) = search.greedy_incumbent() {
            search.best_cost = cost;
            search.best_routes = Some(routes);
        }

        let views = initial_views(instance);
        search.dfs(0, &views, 0.0);

        let routes = search.best_routes?;
        let (nuv, ttl) = cost_components(instance, &routes);
        Some(ExactSolution {
            total_cost: instance.fleet.total_cost(nuv, ttl),
            nuv,
            ttl,
            routes,
            optimal: !search.truncated,
            nodes_explored: search.nodes,
        })
    }
}

/// Fresh static views: every vehicle at its depot at time zero (the static
/// relaxation lets vehicles depart before order creation and wait on site).
fn initial_views(instance: &Instance) -> Vec<VehicleView> {
    instance
        .fleet
        .vehicles
        .iter()
        .map(|v| VehicleView::idle_at_depot(v.id, v.depot))
        .collect()
}

fn route_length(instance: &Instance, view: &VehicleView) -> f64 {
    view.route
        .length(&instance.network, view.anchor_node, view.depot)
}

fn cost_components(instance: &Instance, routes: &[Route]) -> (usize, f64) {
    let mut nuv = 0;
    let mut ttl = 0.0;
    for (k, route) in routes.iter().enumerate() {
        if route.is_empty() {
            continue;
        }
        nuv += 1;
        let depot = instance.fleet.vehicles[k].depot;
        ttl += route.length(&instance.network, depot, depot);
    }
    (nuv, ttl)
}

impl Search<'_> {
    fn out_of_budget(&mut self) -> bool {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.truncated = true;
                return true;
            }
        }
        if let Some(limit) = self.node_limit {
            if self.nodes >= limit {
                self.truncated = true;
                return true;
            }
        }
        false
    }

    fn greedy_incumbent(&self) -> Option<(Vec<Route>, f64)> {
        let instance = self.instance;
        let mut views = initial_views(instance);
        for order in instance.orders() {
            let mut best: Option<(usize, Route, f64)> = None;
            for (k, view) in views.iter().enumerate() {
                let plan = self.planner.plan(view, order);
                if let Some(b) = plan.best {
                    let delta = b.length() - plan.current_length;
                    if best.as_ref().is_none_or(|(_, _, bd)| delta < *bd) {
                        best = Some((k, b.candidate.route, delta));
                    }
                }
            }
            let (k, route, _) = best?;
            views[k].route = route;
            views[k].used = true;
        }
        let routes: Vec<Route> = views.into_iter().map(|v| v.route).collect();
        let (nuv, ttl) = cost_components(instance, &routes);
        Some((routes, instance.fleet.total_cost(nuv, ttl)))
    }

    /// Current partial cost: used-vehicle fixed costs plus current route
    /// lengths. Admissible because insertions never shorten a metric route.
    fn partial_cost(&self, views: &[VehicleView]) -> f64 {
        let fleet = &self.instance.fleet;
        let mut nuv = 0;
        let mut ttl = 0.0;
        for v in views {
            if !v.route.is_empty() {
                nuv += 1;
                ttl += route_length(self.instance, v);
            }
        }
        fleet.total_cost(nuv, ttl)
    }

    fn dfs(&mut self, order_idx: usize, views: &[VehicleView], _parent_cost: f64) {
        self.nodes += 1;
        if self.out_of_budget() {
            return;
        }
        let orders = self.instance.orders();
        if order_idx == orders.len() {
            let cost = self.partial_cost(views);
            if cost < self.best_cost {
                self.best_cost = cost;
                self.best_routes = Some(views.iter().map(|v| v.route.clone()).collect());
            }
            return;
        }
        let order = &orders[order_idx];

        // Collect all (vehicle, candidate route, resulting bound) branches.
        // Candidates come from the incremental sweep — one schedule cache
        // per view, every position pair scored allocation-free, only the
        // branched routes materialized — instead of per-candidate
        // re-simulation (the naive path remains as the fallback oracle for
        // infeasible bases, which search states never produce).
        let fleet = &self.instance.fleet;
        let net = &self.instance.network;
        let pickup_stop = Stop::pickup(order.pickup, order.id);
        let delivery_stop = Stop::delivery(order.delivery, order.id);
        let partial = self.partial_cost(views);
        let mut branches: Vec<(usize, Route, f64)> = Vec::new();
        let mut seen_empty_depot: Vec<dpdp_net::NodeId> = Vec::new();
        for (k, view) in views.iter().enumerate() {
            if view.route.is_empty() {
                // Symmetry breaking: identical unused vehicles at the same
                // depot are interchangeable.
                if seen_empty_depot.contains(&view.depot) {
                    continue;
                }
                seen_empty_depot.push(view.depot);
            }
            // Bound after an insertion: other routes unchanged.
            let others: f64 = partial
                - if view.route.is_empty() {
                    0.0
                } else {
                    fleet.fixed_cost + fleet.unit_cost * route_length(self.instance, view)
                };
            let cache = ScheduleCache::build(view, net, fleet, orders);
            if cache.is_feasible() {
                let anchor = view.anchor_node;
                let depot = view.depot;
                sweep_insertions(&cache, view, order, net, fleet, orders, |cand| {
                    let route = view.route.with_insertion(
                        pickup_stop,
                        cand.pickup_pos,
                        delivery_stop,
                        cand.delivery_pos,
                    );
                    // Bound on the exact left-to-right length fold (not the
                    // delta-approximate `cand.length`): it is the same sum
                    // `partial_cost` computes at the child, so the bound
                    // stays admissible down to the last ulp, and the naive
                    // fallback branches below are ranked on equal footing.
                    let this =
                        fleet.fixed_cost + fleet.unit_cost * route.length(net, anchor, depot);
                    branches.push((k, route, others + this));
                });
            } else {
                for cand in enumerate_insertions(view, order, net, fleet, orders) {
                    let this = fleet.fixed_cost + fleet.unit_cost * cand.schedule.total_length;
                    branches.push((k, cand.route, others + this));
                }
            }
        }
        // Best-first child ordering tightens the incumbent early; total_cmp
        // keeps the order deterministic even for pathological non-finite
        // bounds.
        branches.sort_by(|a, b| a.2.total_cmp(&b.2));

        for (k, route, bound) in branches {
            if bound >= self.best_cost {
                continue;
            }
            let mut next = views.to_vec();
            next[k].route = route;
            next[k].used = true;
            self.dfs(order_idx + 1, &next, bound);
            if self.truncated {
                return;
            }
        }
    }
}

/// Evaluates a solved route set under the *dynamic* metrics, for apples-to-
/// apples comparison with simulated dispatchers: returns `(NUV, TTL, TC)`.
pub fn evaluate_routes(instance: &Instance, routes: &[Route]) -> (usize, f64, f64) {
    let (nuv, ttl) = cost_components(instance, routes);
    (nuv, ttl, instance.fleet.total_cost(nuv, ttl))
}

/// Checks that a route set serves every order exactly once and respects all
/// constraints (used by tests and the Table I harness as a solution audit).
pub fn validate_solution(instance: &Instance, routes: &[Route]) -> Result<(), String> {
    use dpdp_routing::simulate_schedule;
    let mut served = vec![0usize; instance.num_orders()];
    for (k, route) in routes.iter().enumerate() {
        let conf = &instance.fleet.vehicles[k];
        let view = VehicleView {
            vehicle: VehicleId::from_index(k),
            depot: conf.depot,
            anchor_node: conf.depot,
            anchor_time: TimePoint::ZERO,
            onboard: Vec::new(),
            route: route.clone(),
            used: !route.is_empty(),
        };
        simulate_schedule(
            &view,
            route,
            &instance.network,
            &instance.fleet,
            instance.orders(),
        )
        .map_err(|v| format!("vehicle {k}: {v}"))?;
        for stop in route.stops() {
            if stop.action.is_pickup() {
                served[stop.action.order().index()] += 1;
            }
        }
    }
    for (i, &n) in served.iter().enumerate() {
        if n != 1 {
            return Err(format!("order {i} served {n} times"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{Baseline1, Baseline2, Baseline3};
    use dpdp_net::{
        FleetConfig, IntervalGrid, Node, NodeId, Order, OrderId, Point, RoadNetwork, TimeDelta,
    };
    use dpdp_sim::{Dispatcher, Simulator};

    fn line_instance(num_vehicles: usize, orders: Vec<Order>) -> Instance {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(10.0, 0.0)),
            Node::factory(NodeId(2), Point::new(20.0, 0.0)),
            Node::factory(NodeId(3), Point::new(30.0, 0.0)),
        ];
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        let fleet = FleetConfig::homogeneous(
            num_vehicles,
            &[NodeId(0)],
            10.0,
            300.0,
            2.0,
            60.0,
            TimeDelta::ZERO,
        )
        .unwrap();
        Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap()
    }

    fn order(id: u32, p: u32, d: u32, q: f64, created_h: f64, deadline_h: f64) -> Order {
        Order::new(
            OrderId(id),
            NodeId(p),
            NodeId(d),
            q,
            dpdp_net::TimePoint::from_hours(created_h),
            dpdp_net::TimePoint::from_hours(deadline_h),
        )
        .unwrap()
    }

    #[test]
    fn single_order_optimum_is_direct_route() {
        let inst = line_instance(2, vec![order(0, 1, 2, 5.0, 8.0, 20.0)]);
        let sol = ExactSolver::new().solve(&inst).unwrap();
        assert!(sol.optimal);
        assert_eq!(sol.nuv, 1);
        assert!((sol.ttl - 40.0).abs() < 1e-9);
        assert!((sol.total_cost - (300.0 + 80.0)).abs() < 1e-9);
        validate_solution(&inst, &sol.routes).unwrap();
    }

    #[test]
    fn hitchhiking_orders_share_one_vehicle() {
        // Two same-lane orders: optimum carries both on one vehicle.
        let inst = line_instance(
            3,
            vec![
                order(0, 1, 3, 4.0, 8.0, 20.0),
                order(1, 2, 3, 4.0, 9.0, 20.0),
            ],
        );
        let sol = ExactSolver::new().solve(&inst).unwrap();
        assert!(sol.optimal);
        assert_eq!(sol.nuv, 1);
        // 0 -> 1 -> 2 -> 3 -> 0: 10+10+10+30 = 60 km.
        assert!((sol.ttl - 60.0).abs() < 1e-9, "ttl = {}", sol.ttl);
        validate_solution(&inst, &sol.routes).unwrap();
    }

    #[test]
    fn capacity_forces_two_vehicles_in_optimum() {
        // Capacity (8+8 > 10) forbids carrying both, and the 8:15 deadlines
        // rule out serving them back to back (second delivery would land at
        // 8:30), even with pre-positioning. Two vehicles are optimal.
        let inst = line_instance(
            3,
            vec![
                order(0, 1, 2, 8.0, 8.0, 8.25),
                order(1, 1, 2, 8.0, 8.0, 8.25),
            ],
        );
        let sol = ExactSolver::new().solve(&inst).unwrap();
        assert!(sol.optimal);
        assert_eq!(sol.nuv, 2);
        validate_solution(&inst, &sol.routes).unwrap();
    }

    #[test]
    fn exact_beats_or_matches_every_baseline() {
        // A mixed 5-order instance.
        let orders = vec![
            order(0, 1, 3, 3.0, 8.0, 20.0),
            order(1, 2, 1, 4.0, 8.5, 20.0),
            order(2, 3, 2, 2.0, 9.0, 20.0),
            order(3, 1, 2, 5.0, 9.5, 20.0),
            order(4, 2, 3, 3.0, 10.0, 20.0),
        ];
        let inst = line_instance(3, orders);
        let sol = ExactSolver::new().solve(&inst).unwrap();
        assert!(sol.optimal);
        validate_solution(&inst, &sol.routes).unwrap();
        for d in [
            &mut Baseline1 as &mut dyn Dispatcher,
            &mut Baseline2,
            &mut Baseline3::default(),
        ] {
            let r = Simulator::builder(&inst).build().unwrap().run(d);
            assert_eq!(r.metrics.served, 5);
            assert!(
                sol.total_cost <= r.metrics.total_cost + 1e-9,
                "exact {} should not exceed {} ({})",
                sol.total_cost,
                d.name(),
                r.metrics.total_cost
            );
        }
    }

    #[test]
    fn node_limit_returns_incumbent_non_optimal() {
        let orders = (0..6)
            .map(|i| order(i, 1 + (i % 3), 1 + ((i + 1) % 3), 2.0, 8.0, 23.0))
            .collect();
        let inst = line_instance(3, orders);
        let solver = ExactSolver {
            config: ExactConfig {
                time_limit: None,
                node_limit: Some(5),
            },
        };
        let sol = solver.solve(&inst).unwrap();
        assert!(!sol.optimal);
        validate_solution(&inst, &sol.routes).unwrap();
        // The incumbent is the greedy solution or better.
        assert!(sol.total_cost.is_finite());
    }

    #[test]
    fn infeasible_instance_returns_none() {
        // Deadline impossible for everyone.
        let inst = line_instance(2, vec![order(0, 1, 2, 5.0, 8.0, 8.01)]);
        assert!(ExactSolver::new().solve(&inst).is_none());
    }

    #[test]
    fn validate_solution_catches_unserved_and_double_serves() {
        let inst = line_instance(2, vec![order(0, 1, 2, 5.0, 8.0, 20.0)]);
        let empty = vec![Route::empty(), Route::empty()];
        assert!(validate_solution(&inst, &empty).is_err());
    }
}
