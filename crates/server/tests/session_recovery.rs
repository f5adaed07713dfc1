//! Fault-tolerance suite: a killed-and-resumed episode must be
//! **bit-identical** — decisions and `EpisodeMetrics` — to the same
//! command stream served uninterrupted; journals survive a server
//! process restart; a panicking session dies alone; idle peers are
//! reaped but stay resumable; load past the session cap is shed; and
//! shutdown drains gracefully (or force-closes at the deadline).

use dpdp_net::{NodeId, Order, OrderId, TimePoint};
use dpdp_server::{
    token_from_ok_detail, ClientError, Command, DecisionServer, DrainOutcome, Opened, ServeClient,
    ServerConfig, ServerMsg, WireDecision,
};
use dpdp_sim::{
    BufferingMode, EpisodeResult, EventSource, InvariantAuditor, ReplaySource, Simulator,
};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The socket-parity deterministic trace over `ring12` (ids dense from
/// 0, every 7th order unservably tight so rejections are exercised).
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

/// The uninterrupted in-process reference episode, with the
/// `InvariantAuditor` checking every route it commits.
fn run_in_process(policy_name: &str, seed: u64, orders: &[Order]) -> EpisodeResult {
    let instance = dpdp_server::preset::build_instance("ring12").expect("ring12 preset");
    let mut policy = dpdp_server::preset::build_policy(policy_name).expect("known policy");
    let sim = Simulator::builder(&instance)
        .buffering(BufferingMode::Immediate)
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

fn send_orders(client: &mut ServeClient, orders: &[Order]) {
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
}

/// Reads episode frames until `want` decisions arrived, returning the
/// episode-frame count (`EPOCH` + `DECISION` + `DISRUPT` — the resume
/// `ack`) and the decisions themselves.
fn read_until_decisions(client: &mut ServeClient, want: usize) -> (usize, Vec<WireDecision>) {
    let mut ack = 0;
    let mut decisions = Vec::new();
    while decisions.len() < want {
        match client
            .next_msg()
            .expect("readable stream")
            .expect("stream stays open")
        {
            ServerMsg::Epoch { .. } | ServerMsg::Disrupt(_) => ack += 1,
            ServerMsg::Decision(d) => {
                ack += 1;
                decisions.push(d);
            }
            ServerMsg::Err { code, detail } => panic!("unexpected ERR {code} {detail}"),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    (ack, decisions)
}

/// Resumes a tenant, retrying while the dying predecessor session still
/// holds the journal claim (`ERR session-active` is a transient verdict
/// right after a kill — the old session drains asynchronously).
fn resume_with_retry(addr: SocketAddr, tenant: &str, token: &str, ack: usize) -> ServeClient {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut client = ServeClient::connect(addr).expect("connect");
        let resume = Command::Resume {
            tenant: tenant.to_string(),
            token: token.to_string(),
            ack,
        };
        match client.open(&resume) {
            Ok(greeting) => {
                assert!(
                    matches!(greeting.opened, Opened::Resume { ack: echoed, .. } if echoed == ack),
                    "OK RESUME must echo the ack, got `{greeting}`"
                );
                return client;
            }
            Err(ClientError::Rejected { code, .. })
                if code == "session-active" && Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("resume failed: {e}"),
        }
    }
}

#[test]
fn kill_and_resume_is_bit_identical_to_an_uninterrupted_run() {
    // The acceptance gate: across pool widths {1,4} and both buffering
    // modes, an episode killed mid-stream and resumed via RESUME must
    // reproduce the uninterrupted run's decision stream and metrics
    // bit-for-bit. Both runs stream the identical command sequence:
    // orders 0..10, a FLUSH heartbeat (so buffered mode has emitted
    // decisions to acknowledge before the kill), orders 10..24, DRAIN.
    let orders = trace(24);
    let flush_at = orders[9].created.seconds() + 1.0;
    for threads in [1usize, 4] {
        for buffer_mins in [0.0, 10.0] {
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
            let label = format!("threads={threads}/buffer={buffer_mins}");

            // Uninterrupted reference, over the same wire.
            let mut reference = ServeClient::connect(server.addr()).expect("connect");
            reference
                .hello("ref", "ring12", 11, "baseline1", buffer_mins)
                .expect("handshake");
            send_orders(&mut reference, &orders[..10]);
            reference.flush(flush_at).expect("flush frame");
            send_orders(&mut reference, &orders[10..]);
            reference.drain().expect("drain frame");
            let expected = reference.collect_episode().expect("reference drains");
            assert_eq!(expected.errors, vec![], "{label}: clean reference");
            assert_eq!(
                expected.decisions.len(),
                24,
                "{label}: one decision per order"
            );

            // Victim: same prefix, then a mid-episode kill (socket drop,
            // no DRAIN) after acknowledging a few frames.
            let mut victim = ServeClient::connect(server.addr()).expect("connect");
            let detail = victim
                .hello("victim", "ring12", 11, "baseline1", buffer_mins)
                .expect("handshake");
            let token = token_from_ok_detail(&detail)
                .expect("OK HELLO carries a token")
                .to_string();
            send_orders(&mut victim, &orders[..10]);
            victim.flush(flush_at).expect("flush frame");
            let (ack, pre_kill) = read_until_decisions(&mut victim, 4);
            drop(victim);

            // Resume: replay + suppression picks the stream up exactly
            // where the client left off.
            let mut resumed = resume_with_retry(server.addr(), "victim", &token, ack);
            send_orders(&mut resumed, &orders[10..]);
            resumed.drain().expect("drain frame");
            let rest = resumed.collect_episode().expect("resumed episode drains");
            assert_eq!(rest.errors, vec![], "{label}: clean resume");

            let mut stitched = pre_kill;
            stitched.extend(rest.decisions);
            assert_eq!(
                stitched, expected.decisions,
                "{label}: stitched decision stream diverges from the uninterrupted run"
            );
            assert_eq!(
                rest.metrics, expected.metrics,
                "{label}: resumed metrics diverge from the uninterrupted run"
            );
            assert!(server.stats().resumed >= 1, "{label}: resume counted");
            server.shutdown();
        }
    }
}

#[test]
fn a_file_backed_journal_survives_a_server_process_restart() {
    let dir = std::env::temp_dir().join(format!("dpdp-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let orders = trace(16);

    // Server #1: stream half the trace, acknowledge three decisions,
    // then kill the client *and* the whole server.
    let first = DecisionServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            journal_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let mut reference = ServeClient::connect(first.addr()).expect("connect");
    reference
        .hello("ref", "ring12", 5, "baseline1", 0.0)
        .expect("handshake");
    send_orders(&mut reference, &orders);
    reference.drain().expect("drain frame");
    let expected = reference.collect_episode().expect("reference drains");

    let mut victim = ServeClient::connect(first.addr()).expect("connect");
    let detail = victim
        .hello("phoenix", "ring12", 5, "baseline1", 0.0)
        .expect("handshake");
    let token = token_from_ok_detail(&detail).expect("token").to_string();
    send_orders(&mut victim, &orders[..8]);
    let (ack, pre_kill) = read_until_decisions(&mut victim, 3);
    drop(victim);
    assert_eq!(first.shutdown_drain(), DrainOutcome::Drained);

    // Server #2: a fresh process image — only the journal dir is shared.
    let second = DecisionServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            journal_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let mut resumed = resume_with_retry(second.addr(), "phoenix", &token, ack);
    send_orders(&mut resumed, &orders[8..]);
    resumed.drain().expect("drain frame");
    let rest = resumed.collect_episode().expect("resumed episode drains");
    assert_eq!(rest.errors, vec![]);

    let mut stitched = pre_kill;
    stitched.extend(rest.decisions);
    assert_eq!(stitched, expected.decisions, "restart broke the episode");
    assert_eq!(rest.metrics, expected.metrics, "restart broke the metrics");
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_panicking_session_leaves_other_tenants_serving() {
    let orders = trace(24);
    let reference = run_in_process("baseline1", 3, &orders);
    let server = DecisionServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            debug_frames: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");

    // Tenant A: two orders in, then an injected crash.
    let mut doomed = ServeClient::connect(server.addr()).expect("connect");
    let detail = doomed
        .hello("doomed", "ring12", 3, "baseline1", 0.0)
        .expect("handshake");
    let token = token_from_ok_detail(&detail).expect("token").to_string();
    send_orders(&mut doomed, &orders[..2]);
    // The engine fires an epoch only once the stream reveals time past
    // it: a FLUSH heartbeat releases both decisions before the crash.
    doomed
        .flush(orders[1].created.seconds() + 1.0)
        .expect("flush frame");
    let (mut ack, pre_panic) = read_until_decisions(&mut doomed, 2);
    doomed.send_line("PANIC").expect("panic frame");
    // The supervisor answers ERR internal + BYE — never a clean METRICS.
    loop {
        match doomed.next_msg().expect("supervised farewell") {
            Some(ServerMsg::Err { code, .. }) if code == "internal" => break,
            Some(ServerMsg::Epoch { .. }) | Some(ServerMsg::Disrupt(_)) => ack += 1,
            Some(ServerMsg::Decision(_)) => panic!("no further decisions were due"),
            Some(ServerMsg::Metrics(_)) => panic!("a crashed session must not report METRICS"),
            Some(other) => panic!("unexpected frame {other:?}"),
            None => panic!("connection closed before ERR internal"),
        }
    }

    // Tenant B, meanwhile: the full trace, bit-identical to the solo
    // reference — the panic stayed inside tenant A's session.
    let mut witness = ServeClient::connect(server.addr()).expect("connect");
    witness
        .hello("witness", "ring12", 3, "baseline1", 0.0)
        .expect("a panicked sibling must not block the handshake");
    send_orders(&mut witness, &orders);
    witness.drain().expect("drain frame");
    let episode = witness.collect_episode().expect("witness drains");
    assert_eq!(episode.errors, vec![]);
    assert_eq!(episode.decisions.len(), reference.assignments.len());
    assert_eq!(episode.metrics.as_ref(), Some(&reference.metrics));
    assert_eq!(server.stats().panics, 1, "the crash was counted");

    // The crashed tenant's journal survived the unwind: resume, drain,
    // and the two-order episode finishes with the correct metrics.
    let two_order_reference = run_in_process("baseline1", 3, &orders[..2]);
    let mut resumed = resume_with_retry(server.addr(), "doomed", &token, ack);
    resumed.drain().expect("drain frame");
    let rest = resumed.collect_episode().expect("resumed episode drains");
    assert_eq!(pre_panic.len(), 2);
    assert_eq!(
        rest.metrics.as_ref(),
        Some(&two_order_reference.metrics),
        "resume after a panic must still complete the episode"
    );
    server.shutdown();
}

#[test]
fn an_oversized_frame_draws_a_structured_error_not_a_teardown() {
    let orders = trace(4);
    let reference = run_in_process("baseline1", 9, &orders);
    let server = DecisionServer::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    client
        .hello("bigmouth", "ring12", 9, "baseline1", 0.0)
        .expect("handshake");
    // 64 KiB of garbage in one frame: four times the reader's bound.
    client
        .send_line(&"X".repeat(64 * 1024))
        .expect("oversized frame");
    send_orders(&mut client, &orders);
    client.drain().expect("drain frame");
    let episode = client.collect_episode().expect("session survives");
    assert_eq!(
        episode
            .errors
            .iter()
            .map(|(c, _)| c.as_str())
            .collect::<Vec<_>>(),
        vec!["frame-too-long"],
        "exactly one structured refusal"
    );
    assert_eq!(episode.metrics.as_ref(), Some(&reference.metrics));
    server.shutdown();
}

#[test]
fn an_idle_socket_is_reaped_and_its_episode_resumes() {
    let orders = trace(12);
    let reference = run_in_process("baseline1", 21, &orders);
    let server = DecisionServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");

    let mut ghost = ServeClient::connect(server.addr()).expect("connect");
    let detail = ghost
        .hello("ghost", "ring12", 21, "baseline1", 0.0)
        .expect("handshake");
    let token = token_from_ok_detail(&detail).expect("token").to_string();
    send_orders(&mut ghost, &orders[..5]);
    // Go quiet past the deadline: the server reaps the socket through
    // the drain path (ERR idle-timeout, then the partial episode's
    // METRICS + BYE) and keeps the journal.
    let episode = ghost.collect_episode().expect("reaped episode drains");
    assert_eq!(
        episode
            .errors
            .iter()
            .map(|(c, _)| c.as_str())
            .collect::<Vec<_>>(),
        vec!["idle-timeout"]
    );
    assert_eq!(episode.decisions.len(), 5, "the reaped prefix was decided");
    assert!(server.stats().reaped >= 1, "the reap was counted");

    // Everything the ghost received counts as acknowledged; the resumed
    // session continues with the remaining orders.
    let ack = episode.epochs.len() + episode.decisions.len() + episode.disruptions.len();
    let mut resumed = resume_with_retry(server.addr(), "ghost", &token, ack);
    send_orders(&mut resumed, &orders[5..]);
    resumed.drain().expect("drain frame");
    let rest = resumed.collect_episode().expect("resumed episode drains");
    assert_eq!(rest.errors, vec![]);
    let mut stitched = episode.decisions;
    stitched.extend(rest.decisions);
    assert_eq!(stitched.len(), 12);
    assert_eq!(rest.metrics.as_ref(), Some(&reference.metrics));
    server.shutdown();
}

#[test]
fn connects_beyond_the_session_cap_are_shed_with_overloaded() {
    let orders = trace(8);
    let reference = run_in_process("baseline1", 13, &orders);
    let server = DecisionServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: Some(1),
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");

    let mut seated = ServeClient::connect(server.addr()).expect("connect");
    seated
        .hello("seated", "ring12", 13, "baseline1", 0.0)
        .expect("handshake");

    // One over the cap: a structured refusal, not a silent accept.
    let mut shed = ServeClient::connect(server.addr()).expect("connect");
    match shed.next_msg().expect("refusal frame") {
        Some(ServerMsg::Err { code, .. }) => assert_eq!(code, "overloaded"),
        other => panic!("expected ERR overloaded, got {other:?}"),
    }
    assert_eq!(server.stats().shed, 1);
    drop(shed);

    // The seated tenant is unperturbed — and once it leaves, the seat
    // frees up for the next connection.
    send_orders(&mut seated, &orders);
    seated.drain().expect("drain frame");
    let episode = seated.collect_episode().expect("seated episode drains");
    assert_eq!(episode.metrics.as_ref(), Some(&reference.metrics));
    drop(seated);
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().active > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut next = ServeClient::connect(server.addr()).expect("connect");
    next.hello("next", "ring12", 13, "baseline1", 0.0)
        .expect("the freed seat is usable");
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_active_episodes_and_refuses_new_connects() {
    let orders = trace(12);
    let reference = run_in_process("baseline1", 17, &orders);
    let server = DecisionServer::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = server.addr();

    let mut client = ServeClient::connect(addr).expect("connect");
    client
        .hello("drainee", "ring12", 17, "baseline1", 0.0)
        .expect("handshake");
    send_orders(&mut client, &orders);

    // Drain from another thread while the episode is still attached.
    let drainer = std::thread::spawn(move || server.shutdown_drain());
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        ServeClient::connect_once(addr).is_err(),
        "a draining server must refuse new connections"
    );

    // The active episode still finishes cleanly: METRICS + BYE.
    client.drain().expect("drain frame");
    let episode = client
        .collect_episode()
        .expect("episode drains during shutdown");
    assert_eq!(episode.errors, vec![]);
    assert_eq!(episode.metrics.as_ref(), Some(&reference.metrics));
    assert_eq!(drainer.join().expect("drain thread"), DrainOutcome::Drained);
}

#[test]
fn the_drain_deadline_force_closes_stragglers() {
    let server = DecisionServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            drain_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let mut straggler = ServeClient::connect(server.addr()).expect("connect");
    straggler
        .hello("straggler", "ring12", 1, "baseline1", 0.0)
        .expect("handshake");
    straggler
        .order(2, 8, 4.0, 30_000.0, 60_000.0)
        .expect("order");

    // The straggler never drains: the deadline passes and its socket is
    // force-closed (the client sees the stream end without a BYE).
    let outcome = server.shutdown_drain();
    assert_eq!(outcome, DrainOutcome::ForcedClose(1));
    // A reset mid-read (Err) is just as acceptable as a clean EOF.
    if let Ok(episode) = straggler.collect_episode() {
        assert!(
            episode.metrics.is_none(),
            "no clean drain after force-close"
        );
    }
}

#[test]
fn connect_retries_through_the_server_startup_race() {
    // Reserve a port, release it, and only bind the server there after a
    // deliberate delay: a single connect(2) would be refused, so this
    // passes only through the client's backoff loop.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let addr = probe.local_addr().expect("probe addr");
    drop(probe);
    let starter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(250));
        DecisionServer::bind(addr, ServerConfig::default())
            .expect("delayed bind")
            .spawn()
            .expect("spawn")
    });
    let mut client = ServeClient::connect(addr).expect("backoff rides out the race");
    let server = starter.join().expect("starter thread");
    client
        .hello("early-bird", "ring12", 2, "baseline1", 0.0)
        .expect("handshake");
    client.drain().expect("drain frame");
    assert!(client
        .collect_episode()
        .expect("empty episode")
        .metrics
        .is_some());
    server.shutdown();
}

#[test]
fn resume_verdicts_and_debug_gating_are_structured() {
    let server = DecisionServer::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");

    // STATS answers before any handshake.
    let mut probe = ServeClient::connect(server.addr()).expect("connect");
    assert!(probe.stats().expect("stats frame").total >= 1);

    // PANIC without --debug-frames is refused, and the session lives on.
    probe.send_line("PANIC").expect("panic frame");
    match probe.next_msg().expect("refusal") {
        Some(ServerMsg::Err { code, .. }) => assert_eq!(code, "debug-disabled"),
        other => panic!("expected ERR debug-disabled, got {other:?}"),
    }

    // Resume verdicts: unknown tenant, wrong token, still-live session.
    match probe.resume("nobody", "deadbeef", 0) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, "unknown-session"),
        other => panic!("expected ERR unknown-session, got {other:?}"),
    }
    let detail = probe
        .hello("holder", "ring12", 4, "baseline1", 0.0)
        .expect("handshake");
    let token = token_from_ok_detail(&detail).expect("token").to_string();

    let mut rival = ServeClient::connect(server.addr()).expect("connect");
    match rival.resume("holder", "wrong-token", 0) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, "bad-token"),
        other => panic!("expected ERR bad-token, got {other:?}"),
    }
    match rival.resume("holder", &token, 0) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, "session-active"),
        other => panic!("expected ERR session-active, got {other:?}"),
    }
    match rival.hello("holder", "ring12", 4, "baseline1", 0.0) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, "session-active"),
        other => panic!("expected ERR session-active, got {other:?}"),
    }

    // A resumed holder holds its journal just as the original did.
    send_orders(&mut probe, &trace(1));
    drop(probe);
    let _holder = resume_with_retry(server.addr(), "holder", &token, 0);
    match rival.resume("holder", &token, 0) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, "session-active"),
        other => panic!("expected ERR session-active beside a resumed holder, got {other:?}"),
    }
    match rival.hello("holder", "ring12", 4, "baseline1", 0.0) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, "session-active"),
        other => panic!("expected ERR session-active beside a resumed holder, got {other:?}"),
    }
    server.shutdown();
}
