//! Sessions over the in-memory pipe: the seeded chaos test (four faulty
//! tenants on one server context) and the frame writer's poison
//! tolerance. The TCP-level suites are `tests/socket_parity.rs` and
//! `tests/session_recovery.rs`.

use super::*;
use crate::pipe::{duplex, Client, Rng};
use crate::proto::{token_from_ok_detail, Greeting, Opened, ServerMsg};
use crate::server::supervise_session;
use dpdp_net::{NodeId, TimePoint};
use dpdp_sim::{EpisodeMetrics, InvariantAuditor};
use std::collections::VecDeque;
use std::thread::{Scope, ScopedJoinHandle};

/// The in-process reference: `commands` pushed through a fresh
/// `Simulator::serve` configured from `spec` exactly as a session
/// configures its episode, with the `InvariantAuditor` checking every
/// route it commits.
pub(super) fn replay(spec: &SessionSpec, commands: &[StreamCommand]) -> EpisodeMetrics {
    let (buffering, sharding) = resolve_spec(spec).expect("a journaled spec resolves");
    let instance = build_instance(&spec.preset).expect("known preset");
    let mut policy = build_policy(&spec.policy).expect("known policy");
    let sim = Simulator::builder(&instance)
        .buffering(buffering)
        .sharding(sharding)
        .seed(spec.seed)
        .build()
        .expect("valid simulator");
    let (tx, rx) = std::sync::mpsc::channel();
    for cmd in commands {
        tx.send(cmd.clone()).expect("receiver alive");
    }
    drop(tx);
    let mut auditor = InvariantAuditor::default();
    let result = sim.serve_observed(rx, policy.as_mut(), &mut [&mut auditor]);
    assert_eq!(auditor.episodes, 1, "the auditor checked the episode");
    result.metrics
}

/// A server context of its own: a fresh journal store and stats block.
/// The small queue bound keeps backpressure in play; it never changes
/// decisions.
pub(super) fn context(pool: Arc<ThreadPool>, debug_frames: bool) -> SessionContext {
    SessionContext {
        pool,
        queue_depth: 4,
        stats: Arc::new(ServerStats::default()),
        journals: Arc::new(JournalStore::new(None)),
        debug_frames,
    }
}

/// A session writer poisoned by a panicking holder still delivers the
/// farewell frames after it.
#[test]
fn send_line_writes_through_a_poisoned_writer() {
    let (mut client, server) = duplex(1, 64);
    let writer = Mutex::new(server.writer);
    let holder = std::thread::scope(|s| {
        s.spawn(|| {
            let _guard = writer.lock();
            panic!("a session panics while writing");
        })
        .join()
    });
    assert!(holder.is_err() && writer.is_poisoned());

    assert!(send_line(&writer, &ServerMsg::Bye));
    assert_eq!(client.next_line().as_deref(), Some("BYE"));
}

const ORDERS: usize = 24;
const SEED: u64 = 7;

/// One tenant's seeded fault (tenant `i` gets `FAULTS[i]`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Fault {
    /// The peer dies mid-episode and resumes; later an injected `PANIC`
    /// crashes the session and it resumes again.
    KillThenPanic,
    /// Unknown, malformed and oversized frames between real ones.
    MalformedFlood,
    /// Every frame arrives in pieces of 1–4 bytes.
    SlowLoris,
    /// Goes quiet until the idle deadline reaps the session, then resumes.
    IdleGhost,
}

const FAULTS: [Fault; 4] = [
    Fault::KillThenPanic,
    Fault::MalformedFlood,
    Fault::SlowLoris,
    Fault::IdleGhost,
];

/// Tenant `tenant`'s `k`-th order frame and the `FLUSH` heartbeat after
/// it, as wire lines and as the commands the reference replays.
fn chaos_order(tenant: usize, k: usize) -> ([String; 2], [StreamCommand; 2]) {
    let pickup = 1 + ((k * 5 + tenant) % 12) as u32;
    let delivery = 1 + ((k * 5 + tenant + 4) % 12) as u32;
    let created_s = 8.0 * 3600.0 + 30.0 * k as f64;
    let deadline_s = created_s + 6.0 * 3600.0;
    let order = Order::new(
        OrderId(0),
        NodeId(pickup),
        NodeId(delivery),
        3.0,
        TimePoint::from_seconds(created_s),
        TimePoint::from_seconds(deadline_s),
    )
    .expect("valid chaos order");
    let flush_s = created_s + 1.0;
    (
        [
            format!("ORDER {pickup} {delivery} 3 {created_s} {deadline_s}"),
            format!("FLUSH {flush_s}"),
        ],
        [
            StreamCommand::Order(order),
            StreamCommand::Flush {
                at: TimePoint::from_seconds(flush_s),
            },
        ],
    )
}

fn chaos_spec(tenant: usize) -> SessionSpec {
    SessionSpec {
        tenant: format!("chaos{tenant}"),
        preset: "ring12".into(),
        seed: SEED + tenant as u64,
        policy: "baseline1".into(),
        buffer_mins: 0.0,
        shards: None,
    }
}

type Session<'scope> = ScopedJoinHandle<'scope, bool>;

/// A tenant's way to the server: sessions over fresh pipes, supervised
/// as the TCP server supervises them, on threads of one scope.
struct Dialer<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    ctx: &'scope SessionContext,
    rng: Rng,
    /// Largest read the session's pipe hands out.
    max_chunk: usize,
}

impl<'scope> Dialer<'scope, '_> {
    fn connect(&mut self) -> (Client, Session<'scope>) {
        let (client, server) = duplex(self.rng.next(), self.max_chunk);
        let ctx = self.ctx;
        let session = self
            .scope
            .spawn(move || supervise_session(server.reader, server.writer, ctx));
        (client, session)
    }

    /// Joins the session a fault ended — it must have panicked exactly
    /// when `panicked` — then opens a new one with `resume`, which must be
    /// answered `OK RESUME` echoing `ack`.
    fn resume(
        &mut self,
        ended: Session<'scope>,
        panicked: bool,
        resume: &str,
        ack: usize,
    ) -> (Client, Session<'scope>) {
        assert_eq!(ended.join().ok(), Some(panicked), "supervisor verdict");
        let (mut client, session) = self.connect();
        client.send(resume);
        match client.next_msg() {
            Some(ServerMsg::Ok(Greeting {
                opened: Opened::Resume { ack: echoed, .. },
                ..
            })) => assert_eq!(echoed, ack, "OK RESUME must echo the ack"),
            other => panic!("expected OK RESUME, got {other:?}"),
        }
        (client, session)
    }
}

/// What one tenant saw, for the test's accounting.
struct Tally {
    resumes: usize,
    injected: usize,
    decisions: usize,
    metrics: EpisodeMetrics,
}

/// Drives tenant `tenant` through its workload and its fault. Every
/// session it leaves is joined before the next one opens, so a `RESUME`
/// never races the claim of the session it replaces.
fn run_tenant<'scope>(
    scope: &'scope Scope<'scope, '_>,
    ctx: &'scope SessionContext,
    tenant: usize,
) -> Tally {
    let fault = FAULTS[tenant];
    let mut dialer = Dialer {
        scope,
        ctx,
        rng: Rng::new(SEED ^ (tenant as u64 + 1).wrapping_mul(0x0123_4567_89ab_cdef)),
        max_chunk: if fault == Fault::SlowLoris { 4 } else { 64 },
    };
    let spec = chaos_spec(tenant);
    let (mut client, mut session) = dialer.connect();
    client.send(&format!(
        "HELLO {} {} {} {} 0",
        spec.tenant, spec.preset, spec.seed, spec.policy
    ));
    let token = match client.next_msg() {
        Some(ServerMsg::Ok(greeting)) => greeting.token,
        other => panic!("{fault:?}: expected OK HELLO, got {other:?}"),
    };

    let kill_at = 1 + dialer.rng.below(ORDERS / 2 - 1);
    let panic_at = kill_at + 1 + dialer.rng.below(ORDERS - kill_at - 2);
    let ghost_at = 1 + dialer.rng.below(ORDERS - 2);

    // Episode frames received so far: the `ack` of the next RESUME.
    let mut ack = 0usize;
    let mut resumes = 0usize;
    let mut decisions = 0usize;
    // The codes the injected frames must draw, in order.
    let mut expected_errs: VecDeque<&str> = VecDeque::new();
    let mut injected = 0usize;
    let oversized = "X".repeat(MAX_LINE_BYTES + 4 * 1024);
    let resume = |ack: usize| format!("RESUME {} {token} {ack}", spec.tenant);
    for k in 0..ORDERS {
        match fault {
            Fault::KillThenPanic if k == kill_at => {
                // The peer dies without a DRAIN: the journal survives.
                client.kill();
                (client, session) = dialer.resume(session, false, &resume(ack), ack);
                resumes += 1;
            }
            Fault::KillThenPanic if k == panic_at => {
                client.send("PANIC");
                loop {
                    match client.next_msg() {
                        Some(ServerMsg::Err { code, .. }) if code == "internal" => break,
                        Some(ServerMsg::Epoch { .. } | ServerMsg::Disrupt(_)) => ack += 1,
                        other => panic!("{fault:?}: a crashing session sent {other:?}"),
                    }
                }
                assert_eq!(client.next_msg(), Some(ServerMsg::Bye));
                assert_eq!(client.next_msg(), None, "the supervisor hangs up");
                (client, session) = dialer.resume(session, true, &resume(ack), ack);
                resumes += 1;
            }
            Fault::IdleGhost if k == ghost_at => {
                client.go_idle();
                let mut reaped = false;
                loop {
                    match client.next_msg() {
                        Some(ServerMsg::Err { code, .. }) if code == "idle-timeout" => {
                            reaped = true
                        }
                        Some(ServerMsg::Epoch { .. } | ServerMsg::Disrupt(_)) => ack += 1,
                        Some(ServerMsg::Metrics(_)) => {}
                        Some(ServerMsg::Bye) | None => break,
                        other => panic!("{fault:?}: a reaped session sent {other:?}"),
                    }
                }
                assert!(reaped, "{fault:?}: the idle session was never reaped");
                (client, session) = dialer.resume(session, false, &resume(ack), ack);
                resumes += 1;
            }
            Fault::MalformedFlood if dialer.rng.below(3) == 0 => {
                let (garbage, code) = match dialer.rng.below(3) {
                    0 => ("BOGUS 1 2 3", "unknown-command"),
                    1 => ("ORDER not numbers at all", "bad-arity"),
                    _ => (oversized.as_str(), "frame-too-long"),
                };
                client.send(garbage);
                expected_errs.push_back(code);
                injected += 1;
            }
            _ => {}
        }

        for frame in &chaos_order(tenant, k).0 {
            if fault == Fault::SlowLoris {
                client.drip(frame, &mut dialer.rng, 4);
            } else {
                client.send(frame);
            }
        }
        // Wait for this order's decision; an ERR must be one provoked.
        loop {
            match client.next_msg() {
                Some(ServerMsg::Decision(d)) => {
                    ack += 1;
                    assert_eq!(d.order.index(), k, "{fault:?}: decisions in order");
                    decisions += 1;
                    break;
                }
                Some(ServerMsg::Epoch { .. } | ServerMsg::Disrupt(_)) => ack += 1,
                Some(ServerMsg::Err { code, detail }) => {
                    assert_eq!(
                        expected_errs.pop_front(),
                        Some(code.as_str()),
                        "{fault:?}: unprovoked ERR {code} {detail}"
                    );
                }
                other => panic!("{fault:?}: unexpected mid-episode frame {other:?}"),
            }
        }
    }

    client.send("DRAIN");
    let mut metrics = None;
    loop {
        match client.next_msg() {
            Some(ServerMsg::Decision(_)) => decisions += 1,
            Some(ServerMsg::Epoch { .. } | ServerMsg::Disrupt(_)) => {}
            Some(ServerMsg::Err { code, detail }) => {
                assert_eq!(
                    expected_errs.pop_front(),
                    Some(code.as_str()),
                    "{fault:?}: unprovoked ERR {code} {detail}"
                );
            }
            Some(ServerMsg::Metrics(m)) => metrics = Some(m),
            Some(ServerMsg::Bye) => break,
            other => panic!("{fault:?}: the drain ended with {other:?}"),
        }
    }
    assert!(
        expected_errs.is_empty(),
        "{fault:?}: injected frames that drew no ERR: {expected_errs:?}"
    );
    assert_eq!(client.next_msg(), None, "BYE is the last frame");
    assert_eq!(session.join().ok(), Some(false));
    Tally {
        resumes,
        injected,
        decisions,
        metrics: metrics.expect("a drained episode reports METRICS"),
    }
}

/// The chaos test: four tenants share one server context — one journal
/// store, one stats block, one scoring pool of width 2 — and each suffers
/// one seeded fault: kill + `RESUME` then `PANIC` + `RESUME`, a
/// malformed/oversized flood, slow-loris frames, an idle ghost reaped
/// through the pipe's timeout. Every tenant must still end with the
/// `METRICS` of an uninterrupted in-process replay, every injected frame
/// must draw exactly one `ERR`, and the supervision counters must account
/// for every fault.
#[test]
fn four_faulty_tenants_converge_to_their_uninterrupted_episodes() {
    let ctx = context(Arc::new(ThreadPool::new(2)), true);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let ctx = &ctx;
        let tenants: Vec<_> = (0..FAULTS.len())
            .map(|tenant| scope.spawn(move || run_tenant(scope, ctx, tenant)))
            .collect();
        tenants
            .into_iter()
            .map(|t| t.join().expect("tenant driver"))
            .collect()
    });

    for (tenant, tally) in tallies.iter().enumerate() {
        let commands: Vec<StreamCommand> =
            (0..ORDERS).flat_map(|k| chaos_order(tenant, k).1).collect();
        assert_eq!(
            tally.metrics,
            replay(&chaos_spec(tenant), &commands),
            "{:?}: METRICS differ from the uninterrupted replay",
            FAULTS[tenant]
        );
        assert_eq!(tally.decisions, ORDERS);
    }
    let flood = &tallies[1];
    assert!(flood.injected > 0, "the flood injected nothing");
    let stats = ctx.stats.snapshot();
    assert_eq!(stats.panics, 1, "one injected PANIC");
    assert_eq!(stats.reaped, 1, "one idle ghost");
    assert_eq!(
        stats.resumed,
        tallies.iter().map(|t| t.resumes).sum::<usize>(),
        "every RESUME counted"
    );
    assert_eq!(stats.resumed, 3, "kill, panic and ghost each resumed once");
}

/// `RESUME` opens a resumed episode even of an empty journal with ack 0,
/// and the resumed session holds its journal: while it lives, a rival
/// `RESUME` or `HELLO` of its tenant draws `ERR session-active`.
#[test]
fn a_resume_of_an_empty_journal_greets_resume_and_holds_the_journal() {
    let ctx = context(Arc::new(ThreadPool::new(1)), false);
    std::thread::scope(|scope| {
        let mut dialer = Dialer {
            scope,
            ctx: &ctx,
            rng: Rng::new(SEED),
            max_chunk: 64,
        };
        let (mut client, session) = dialer.connect();
        client.send("HELLO quiet ring12 3");
        let token = match client.next_msg() {
            Some(ServerMsg::Ok(greeting)) => greeting.token,
            other => panic!("expected OK HELLO, got {other:?}"),
        };
        client.kill();
        let resume = format!("RESUME quiet {token} 0");
        let (mut holder, held) = dialer.resume(session, false, &resume, 0);

        let (mut rival, rival_session) = dialer.connect();
        for frame in [resume.as_str(), "HELLO quiet ring12 3"] {
            rival.send(frame);
            match rival.next_msg() {
                Some(ServerMsg::Err { code, .. }) => assert_eq!(code, "session-active"),
                other => panic!("`{frame}` beside a resumed session drew {other:?}"),
            }
        }
        rival.hang_up();
        assert_eq!(rival.next_msg(), None);
        assert_eq!(rival_session.join().ok(), Some(false));

        holder.send("DRAIN");
        while holder.next_msg().is_some() {}
        assert_eq!(held.join().ok(), Some(false));
    });
    assert_eq!(ctx.stats.snapshot().resumed, 1);
}

/// Drives `client` until `want` decisions have arrived; returns the
/// episode frames read (the `ack` of a later `RESUME`).
fn await_decisions(client: &mut Client, want: usize) -> usize {
    let (mut ack, mut decisions) = (0, 0);
    while decisions < want {
        match client.next_msg() {
            Some(ServerMsg::Decision(_)) => {
                ack += 1;
                decisions += 1;
            }
            Some(ServerMsg::Epoch { .. } | ServerMsg::Disrupt(_)) => ack += 1,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    ack
}

/// The exact `OK HELLO` and `OK RESUME` lines of a fixed session: the
/// greetings are structured frames now, and their bytes must not move.
#[test]
fn greetings_keep_their_bytes() {
    let ctx = context(Arc::new(ThreadPool::new(1)), false);
    std::thread::scope(|scope| {
        let mut dialer = Dialer {
            scope,
            ctx: &ctx,
            rng: Rng::new(SEED),
            max_chunk: 64,
        };
        let (mut client, session) = dialer.connect();
        client.send("HELLO pinned ring12 7 baseline1 0 2");
        assert_eq!(
            client.next_line().as_deref(),
            Some(
                "OK HELLO pinned preset=ring12 policy=baseline1 seed=7 orders_base=0 \
                 vehicles=8 shards=2 token=1-d9c25706"
            )
        );
        for k in 0..3 {
            for frame in &chaos_order(0, k).0 {
                client.send(frame);
            }
        }
        let ack = await_decisions(&mut client, 3);
        client.kill();
        assert_eq!(session.join().ok(), Some(false));

        let (mut client, session) = dialer.connect();
        client.send(&format!("RESUME pinned 1-d9c25706 {ack}"));
        assert_eq!(
            client.next_line().as_deref(),
            Some(
                "OK RESUME pinned preset=ring12 policy=baseline1 seed=7 replayed=6 ack=6 \
                 token=1-d9c25706"
            )
        );
        client.send("DRAIN");
        while client.next_msg().is_some() {}
        assert_eq!(session.join().ok(), Some(false));
    });
}

/// A tenant named like a greeting field (`token=evil`) still resumes:
/// the token is read from the greeting's own field, not the first
/// `token=` in the line.
#[test]
fn a_tenant_named_like_the_token_field_resumes_with_its_own_token() {
    let ctx = context(Arc::new(ThreadPool::new(1)), false);
    std::thread::scope(|scope| {
        let mut dialer = Dialer {
            scope,
            ctx: &ctx,
            rng: Rng::new(SEED),
            max_chunk: 64,
        };
        let (mut client, session) = dialer.connect();
        client.send("HELLO token=evil ring12 3");
        let line = client.next_line().expect("a greeting");
        let detail = line.strip_prefix("OK ").expect("an OK greeting");
        let token = token_from_ok_detail(detail)
            .expect("OK HELLO carries a token")
            .to_string();
        client.kill();
        let resume = format!("RESUME token=evil {token} 0");
        let (mut client, session) = dialer.resume(session, false, &resume, 0);
        client.send("DRAIN");
        while client.next_msg().is_some() {}
        assert_eq!(session.join().ok(), Some(false));
    });
}
