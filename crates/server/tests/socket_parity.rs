//! Socket-parity suite: a TCP-fed episode must be **bit-identical** —
//! decisions and `EpisodeMetrics` — to the same order trace replayed
//! in-process, for multiple policies and buffering modes; malformed
//! frames draw structured errors without dropping the session; and one
//! tenant's stall or hang-up never perturbs another tenant's episode.

use dpdp_net::TimeDelta;
use dpdp_net::{NodeId, Order, OrderId, TimePoint};
use dpdp_server::{DecisionServer, Opened, ServeClient, ServerConfig, WireDecision};
use dpdp_sim::{
    BufferingMode, EpisodeResult, EventSource, InvariantAuditor, ReplaySource, Simulator,
};

/// A deterministic trace over the `ring12` preset's factories (ids
/// `1..=12`), with dense ids `0..n` — the ids the engine assigns streamed
/// orders on an empty replay table. Every 7th order gets a deadline too
/// tight to serve, so the trace exercises rejections too.
fn trace(n: usize) -> Vec<Order> {
    (0..n)
        .map(|i| {
            let pickup = 1 + ((i * 5) % 12) as u32;
            let delivery = 1 + ((i * 5 + 4) % 12) as u32;
            let created = TimePoint::from_seconds(8.0 * 3600.0 + 240.0 * i as f64);
            let deadline = if i % 7 == 3 {
                TimePoint::from_seconds(created.seconds() + 600.0)
            } else {
                TimePoint::from_seconds(created.seconds() + 4.0 * 3600.0)
            };
            Order::new(
                OrderId::from_index(i),
                NodeId(pickup),
                NodeId(delivery),
                2.0 + (i % 3) as f64,
                created,
                deadline,
            )
            .expect("valid trace order")
        })
        .collect()
}

/// Replays the trace in-process through the event engine — the reference
/// episode the TCP runs must match bit-for-bit — with the
/// `InvariantAuditor` checking every route it commits, so the bit-identical
/// TCP episodes are audited too.
fn run_in_process(
    policy_name: &str,
    buffering: BufferingMode,
    seed: u64,
    orders: &[Order],
) -> EpisodeResult {
    let instance = dpdp_server::preset::build_instance("ring12").expect("ring12 preset");
    let mut policy = dpdp_server::preset::build_policy(policy_name).expect("known policy");
    let sim = Simulator::builder(&instance)
        .buffering(buffering)
        .seed(seed)
        .build()
        .expect("valid simulator");
    let sources: Vec<Box<dyn EventSource + '_>> = vec![Box::new(ReplaySource::from_orders(orders))];
    let mut auditor = InvariantAuditor::default();
    let result = sim.run_events(sources, policy.as_mut(), &mut [&mut auditor]);
    assert!(
        auditor.episodes > 0 && auditor.routes > 0,
        "the auditor checked nothing"
    );
    result
}

/// Streams the trace over TCP and drains the episode.
fn run_over_tcp(
    addr: std::net::SocketAddr,
    tenant: &str,
    policy_name: &str,
    buffer_mins: f64,
    seed: u64,
    orders: &[Order],
) -> dpdp_server::Episode {
    let mut client = ServeClient::connect(addr).expect("connect");
    client
        .hello(tenant, "ring12", seed, policy_name, buffer_mins)
        .expect("handshake accepted");
    for o in orders {
        client
            .order(
                o.pickup.0,
                o.delivery.0,
                o.quantity,
                o.created.seconds(),
                o.deadline.seconds(),
            )
            .expect("order frame");
    }
    client.drain().expect("drain frame");
    client.collect_episode().expect("episode drains to BYE")
}

fn as_wire(result: &EpisodeResult) -> Vec<WireDecision> {
    result
        .assignments
        .iter()
        .map(|a| WireDecision {
            order: a.order,
            vehicle: a.vehicle,
            reason: a.reason,
            time_s: a.time.seconds(),
        })
        .collect()
}

#[test]
fn tcp_episode_is_bit_identical_to_in_process_replay() {
    // Two policies, two buffering modes, two pool widths: every
    // combination must reproduce the reference episode exactly.
    let orders = trace(24);
    for (policy, buffer_mins) in [("baseline1", 0.0), ("baseline1", 10.0), ("baseline3", 10.0)] {
        let buffering = if buffer_mins > 0.0 {
            BufferingMode::FixedInterval(TimeDelta::from_minutes(buffer_mins))
        } else {
            BufferingMode::Immediate
        };
        let reference = run_in_process(policy, buffering, 11, &orders);
        assert!(
            reference.metrics.served > 0 && reference.metrics.rejected > 0,
            "trace must exercise both outcomes ({policy})"
        );
        for threads in [1, 4] {
            let server = DecisionServer::bind(
                "127.0.0.1:0",
                ServerConfig {
                    threads,
                    queue_depth: 8,
                    ..ServerConfig::default()
                },
            )
            .expect("bind")
            .spawn()
            .expect("spawn");
            let episode = run_over_tcp(server.addr(), "parity", policy, buffer_mins, 11, &orders);
            assert_eq!(episode.errors, vec![], "{policy}: no protocol errors");
            assert_eq!(
                episode.decisions,
                as_wire(&reference),
                "{policy}/threads={threads}: decision streams diverge"
            );
            assert_eq!(
                episode.metrics.as_ref(),
                Some(&reference.metrics),
                "{policy}/threads={threads}: metrics diverge"
            );
            server.shutdown();
        }
    }
}

#[test]
fn a_shard_override_reproduces_the_unsharded_reference_episode() {
    // The ring preset registers a hierarchical layout; a HELLO override
    // swaps in a flat 3-cell one. Neither may move a single decision:
    // sharding partitions scoring work, it never changes outcomes. The
    // reference below is built with the default (unsharded) simulator.
    let orders = trace(24);
    let reference = run_in_process("baseline1", BufferingMode::Immediate, 11, &orders);
    let server = DecisionServer::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    client
        .send_line("HELLO override ring12 11 baseline1 0 3")
        .expect("send");
    match client.next_msg().expect("handshake frame") {
        Some(dpdp_server::ServerMsg::Ok(greeting)) => {
            assert!(
                matches!(greeting.opened, Opened::Hello { shards: 3, .. }),
                "OK must echo the resolved layout, got `{greeting}`"
            );
        }
        other => panic!("expected OK HELLO, got {other:?}"),
    }
    for o in &orders {
        client
            .order(
                o.pickup.0,
                o.delivery.0,
                o.quantity,
                o.created.seconds(),
                o.deadline.seconds(),
            )
            .expect("order frame");
    }
    client.drain().expect("drain");
    let episode = client.collect_episode().expect("drains");
    assert_eq!(episode.errors, vec![]);
    assert_eq!(episode.decisions, as_wire(&reference));
    assert_eq!(episode.metrics, Some(reference.metrics));
    server.shutdown();
}

#[test]
fn eof_drains_like_drain() {
    let orders = trace(10);
    let reference = run_in_process("baseline1", BufferingMode::Immediate, 5, &orders);
    let server = DecisionServer::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    client
        .hello("hangup", "ring12", 5, "baseline1", 0.0)
        .expect("handshake");
    for o in &orders {
        client
            .order(
                o.pickup.0,
                o.delivery.0,
                o.quantity,
                o.created.seconds(),
                o.deadline.seconds(),
            )
            .expect("order frame");
    }
    // No DRAIN: half-close the socket instead. The server must flush the
    // remaining epochs and still emit METRICS + BYE.
    client.eof().expect("half-close");
    let episode = client.collect_episode().expect("drains on EOF");
    assert_eq!(episode.decisions, as_wire(&reference));
    assert_eq!(episode.metrics, Some(reference.metrics));
    server.shutdown();
}

#[test]
fn malformed_frames_draw_structured_errors_not_disconnects() {
    let server = DecisionServer::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    let expect_err =
        |client: &mut ServeClient, code: &str| match client.next_msg().expect("readable frame") {
            Some(dpdp_server::ServerMsg::Err { code: got, .. }) => {
                assert_eq!(got, code, "wrong error class")
            }
            other => panic!("expected ERR {code}, got {other:?}"),
        };

    // Pre-handshake garbage: the session answers and keeps waiting.
    client.send_line("DISPATCH ALL THE TRUCKS").expect("send");
    expect_err(&mut client, "unknown-command");
    client.send_line("ORDER 1 2 3 4 5").expect("send");
    expect_err(&mut client, "expected-hello");
    client
        .send_line("HELLO t mars 7 baseline1 0")
        .expect("send");
    expect_err(&mut client, "unknown-preset");
    client.send_line("HELLO t ring12 7 oracle 0").expect("send");
    expect_err(&mut client, "unknown-policy");
    client
        .send_line("HELLO t ring12 7 baseline1 0 0")
        .expect("send");
    expect_err(&mut client, "invalid-shards"); // zero shards
    client
        .send_line("HELLO t ring12 7 baseline1 0 50000")
        .expect("send");
    expect_err(&mut client, "invalid-shards"); // above the serving cap
    client
        .send_line("HELLO t ring12 7 baseline1 0 four")
        .expect("send");
    expect_err(&mut client, "bad-number");

    client
        .hello("t", "ring12", 7, "baseline1", 0.0)
        .expect("handshake");

    // Mid-episode garbage: every class of bad frame is answered in order,
    // and none of them kills the session or leaks into the episode.
    client
        .send_line("HELLO t ring12 7 baseline1 0")
        .expect("send");
    expect_err(&mut client, "already-active");
    client.send_line("ORDER 1 2 3").expect("send");
    expect_err(&mut client, "bad-arity");
    client.send_line("ORDER 1 2 3 x 5").expect("send");
    expect_err(&mut client, "bad-number");
    client.send_line("ORDER 0 2 3 28800 43200").expect("send");
    expect_err(&mut client, "invalid-order"); // node 0 is the depot
    client.send_line("ORDER 1 1 3 28800 43200").expect("send");
    expect_err(&mut client, "invalid-order"); // pickup == delivery
    client.send_line("BREAKDOWN 99 28800").expect("send");
    expect_err(&mut client, "unknown-vehicle");
    client.send_line("CANCEL 0 28800").expect("send");
    expect_err(&mut client, "unknown-order"); // nothing streamed yet

    // The session is still healthy: a real order flows end to end.
    client.order(1, 5, 3.0, 28_800.0, 43_200.0).expect("order");
    client.drain().expect("drain");
    let episode = client.collect_episode().expect("clean drain");
    assert_eq!(episode.errors, vec![], "post-handshake stream was clean");
    assert_eq!(episode.decisions.len(), 1);
    let metrics = episode.metrics.expect("final metrics");
    assert_eq!(metrics.served + metrics.rejected, 1);
    server.shutdown();
}

#[test]
fn a_stalled_tenant_cannot_perturb_another_tenants_episode() {
    let orders = trace(16);
    let reference = run_in_process("baseline1", BufferingMode::Immediate, 3, &orders);
    let server = DecisionServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            queue_depth: 4,
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");

    // Tenant A: streams one order, then stalls — never reads its socket,
    // never drains, holds its connection (and its episode) open.
    let mut stalled = ServeClient::connect(server.addr()).expect("connect");
    stalled
        .hello("stalled", "ring12", 99, "baseline3", 0.0)
        .expect("handshake");
    stalled.order(2, 8, 4.0, 30_000.0, 60_000.0).expect("order");

    // Tenants B..E: the full trace, concurrently, all while A is stalled.
    // Every one must reproduce the solo reference bit-for-bit.
    let addr = server.addr();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let orders = &orders;
                scope.spawn(move || {
                    run_over_tcp(addr, &format!("tenant{i}"), "baseline1", 0.0, 3, orders)
                })
            })
            .collect();
        for handle in handles {
            let episode = handle.join().expect("tenant thread");
            assert_eq!(episode.errors, vec![]);
            assert_eq!(episode.decisions, as_wire(&reference));
            assert_eq!(episode.metrics.as_ref(), Some(&reference.metrics));
        }
    });

    // A's abrupt hang-up is just an EOF drain; its episode finishes too.
    drop(stalled);
    server.shutdown();
}

#[test]
fn backpressure_bounds_the_queue_without_losing_or_reordering_commands() {
    // A queue of 2 against 120 rapidly-fired orders: the session thread
    // must block on the bounded queue (not drop, not reorder), and the
    // episode must still equal the in-process reference.
    let orders = trace(120);
    let reference = run_in_process("baseline1", BufferingMode::Immediate, 1, &orders);
    let server = DecisionServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            queue_depth: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let episode = run_over_tcp(server.addr(), "burst", "baseline1", 0.0, 1, &orders);
    assert_eq!(episode.errors, vec![]);
    assert_eq!(episode.decisions, as_wire(&reference));
    assert_eq!(episode.metrics, Some(reference.metrics));
    server.shutdown();
}

#[test]
fn disruptions_ride_the_wire_deterministically() {
    // CANCEL / BREAKDOWN / RECOVER frames must replay exactly like the
    // equivalent in-process stream commands.
    let orders = trace(12);
    let instance = dpdp_server::preset::build_instance("ring12").expect("preset");
    let sim = Simulator::builder(&instance)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(10.0)))
        .seed(2)
        .build()
        .expect("simulator");
    let (tx, rx) = std::sync::mpsc::channel();
    for o in &orders {
        tx.send(dpdp_sim::StreamCommand::Order(o.clone()))
            .expect("send");
    }
    tx.send(dpdp_sim::StreamCommand::Breakdown {
        vehicle: dpdp_net::VehicleId(0),
        at: TimePoint::from_seconds(30_500.0),
    })
    .expect("send");
    tx.send(dpdp_sim::StreamCommand::Cancel {
        order: OrderId(5),
        at: TimePoint::from_seconds(30_600.0),
    })
    .expect("send");
    tx.send(dpdp_sim::StreamCommand::Recover {
        vehicle: dpdp_net::VehicleId(0),
        at: TimePoint::from_seconds(33_000.0),
    })
    .expect("send");
    tx.send(dpdp_sim::StreamCommand::Flush {
        at: TimePoint::from_seconds(60_000.0),
    })
    .expect("send");
    drop(tx);
    let mut policy = dpdp_server::preset::build_policy("baseline1").expect("policy");
    // Disruptions rewrite the final assignment log in place (revoked
    // assignments become rejections), so the reference for the *live*
    // DECISION stream is an in-process observer, not `assignments`.
    #[derive(Default)]
    struct Collect(Vec<WireDecision>);
    impl dpdp_sim::SimObserver for Collect {
        fn on_decision(&mut self, record: &dpdp_sim::DecisionRecord<'_>) {
            let a = record.assignment;
            self.0.push(WireDecision {
                order: a.order,
                vehicle: a.vehicle,
                reason: a.reason,
                time_s: a.time.seconds(),
            });
        }
    }
    let mut collect = Collect::default();
    let mut auditor = InvariantAuditor::default();
    let reference = sim.serve_observed(rx, policy.as_mut(), &mut [&mut collect, &mut auditor]);
    assert!(
        auditor.episodes > 0 && auditor.routes > 0,
        "the auditor checked nothing"
    );

    let server = DecisionServer::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    client
        .hello("chaos", "ring12", 2, "baseline1", 10.0)
        .expect("handshake");
    for o in &orders {
        client
            .order(
                o.pickup.0,
                o.delivery.0,
                o.quantity,
                o.created.seconds(),
                o.deadline.seconds(),
            )
            .expect("order frame");
    }
    client.breakdown(0, 30_500.0).expect("breakdown");
    client.cancel(5, 30_600.0).expect("cancel");
    client.recover(0, 33_000.0).expect("recover");
    client.flush(60_000.0).expect("flush");
    client.drain().expect("drain");
    let episode = client.collect_episode().expect("drains");
    assert_eq!(episode.errors, vec![]);
    assert_eq!(
        episode.disruptions.len(),
        3,
        "breakdown/cancel/recover must each be narrated as a DISRUPT frame"
    );
    assert_eq!(episode.decisions, collect.0);
    assert_eq!(episode.metrics, Some(reference.metrics));
    server.shutdown();
}
