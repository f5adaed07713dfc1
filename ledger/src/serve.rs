//! The serving workloads: `serve_closed` and `serve_journal`.
//!
//! An in-process `DecisionServer` on a loopback port, two tenant
//! connections, each a **closed loop with a window of 16 outstanding
//! orders** (a window of one is wake-up-bound and bimodal on two cores),
//! `ORDER` + `FLUSH` pairs spaced 240 s of virtual time apart (at 30 s the
//! ring's eight vehicles reject most orders and the run times rejections).

use crate::harness::{
    alternate, report_end_to_end, report_trace_ratios, tiles, Outcome, Quality, Quiet, RepLoop,
    RunArgs, SetupTimer, TimedPhase,
};
use crate::inproc::PlanAuditor;
use crate::kernels;
use crate::procfs;
use crate::spec::Workload;
use crate::stats;
use crate::trace::{experiments_dir, trace_path, Tracer, NO_PARENT};
use dpdp_net::{NodeId, Order, OrderId, TimePoint};
use dpdp_pool::ThreadPool;
use dpdp_server::preset::{build_instance, build_policy, shard_config};
use dpdp_server::{
    token_from_ok_detail, ClientError, DecisionServer, ServeClient, ServerConfig, ServerHandle,
    ServerMsg,
};
use dpdp_sim::{EpisodeMetrics, Simulator, StreamCommand};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const PRESET: &str = "ring12";
const POLICY: &str = "baseline1";
const TENANTS: usize = 2;
const ORDERS_PER_TENANT: usize = 20_000;
/// Outstanding orders per tenant connection.
const WINDOW: usize = 16;
/// Virtual seconds between consecutive orders of one tenant.
const SPACING_SECS: f64 = 240.0;
const QUEUE_DEPTH: usize = 64;
/// `serve_journal` drops each tenant's socket after this many decisions.
const RESUME_AFTER: usize = ORDERS_PER_TENANT / 2;
/// A repetition's wall time is cut into tiles of this many decisions,
/// counted over all tenants together.
const TILE_ORDERS: usize = 1000;

/// SplitMix64: the order streams must be a pure function of `--seed`.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One tenant's seeded order stream over the ring's twelve factories
/// (nodes 1..=12), ids dense from 0 as the engine will assign them.
fn tenant_orders(seed: u64, tenant: usize) -> Vec<Order> {
    let mut rng = SplitMix(seed ^ (tenant as u64 + 1).wrapping_mul(0x0123_4567_89ab_cdef));
    (0..ORDERS_PER_TENANT)
        .map(|k| {
            let pickup = rng.below(12);
            let delivery = (pickup + 1 + rng.below(11)) % 12;
            let quantity = 1.0 + rng.below(5) as f64;
            let created = 8.0 * 3600.0 + SPACING_SECS * k as f64;
            Order::new(
                OrderId::from_index(k),
                NodeId(1 + pickup as u32),
                NodeId(1 + delivery as u32),
                quantity,
                TimePoint::from_seconds(created),
                TimePoint::from_seconds(created + 6.0 * 3600.0),
            )
            .expect("generated orders are valid")
        })
        .collect()
}

/// The heartbeat that lets immediate dispatch decide order `o`: one
/// virtual second after its creation.
fn flush_at(o: &Order) -> f64 {
    o.created.seconds() + 1.0
}

/// The server and everything set-up pays for.
struct ServeWorld {
    server: Option<ServerHandle>,
    addr: SocketAddr,
    journal_dir: Option<PathBuf>,
    streams: Vec<Vec<Order>>,
    seed: u64,
    /// Scoring-pool width of the server, and of the in-process replay.
    pool_width: usize,
    /// Sessions opened so far: every one gets a tenant name of its own.
    sessions: AtomicUsize,
}

/// Worlds built so far: every one gets a journal directory of its own
/// (set-up is sampled while the run's world is alive).
static WORLDS: AtomicUsize = AtomicUsize::new(0);

impl ServeWorld {
    fn build(journaled: bool, pool_width: usize, seed: u64) -> Result<ServeWorld, String> {
        let journal_dir = journaled.then(|| {
            let n = WORLDS.fetch_add(1, Ordering::Relaxed);
            experiments_dir().join(format!("ledger_journal_{}_{n}", std::process::id()))
        });
        let server = DecisionServer::bind(
            "127.0.0.1:0",
            ServerConfig {
                threads: pool_width,
                queue_depth: QUEUE_DEPTH,
                journal_dir: journal_dir.clone(),
                ..ServerConfig::default()
            },
        )
        .and_then(DecisionServer::spawn)
        .map_err(|e| format!("cannot start the server: {e}"))?;
        let world = ServeWorld {
            addr: server.addr(),
            server: Some(server),
            journal_dir,
            streams: (0..TENANTS).map(|t| tenant_orders(seed, t)).collect(),
            seed,
            pool_width,
            sessions: AtomicUsize::new(0),
        };
        // A first handshake and drain per tenant: set-up ends when the
        // service has proven it answers.
        for tenant in 0..TENANTS {
            let mut client = world.connect(tenant)?.client;
            client.drain().map_err(|e| format!("set-up drain: {e}"))?;
            client
                .collect_episode()
                .map_err(|e| format!("set-up drain read: {e}"))?;
        }
        Ok(world)
    }

    /// Connects and opens an episode for tenant `tenant` under a tenant
    /// name no earlier session used: the server frees a name only after
    /// its `BYE` has gone out, so a client that reconnects at once under
    /// the same name can still find it taken (`ERR session-active`).
    fn connect(&self, tenant: usize) -> Result<Session, String> {
        let name = format!(
            "ledger{tenant}-{}",
            self.sessions.fetch_add(1, Ordering::Relaxed)
        );
        let mut client = ServeClient::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        let detail = client
            .hello(&name, PRESET, self.seed + tenant as u64, POLICY, 0.0)
            .map_err(|e| format!("handshake: {e}"))?;
        let token = token_from_ok_detail(&detail)
            .ok_or("OK HELLO carried no token")?
            .to_string();
        Ok(Session {
            client,
            name,
            token,
        })
    }
}

/// An open episode: the client, and what a `RESUME` needs.
struct Session {
    client: ServeClient,
    name: String,
    token: String,
}

impl Drop for ServeWorld {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        if let Some(dir) = &self.journal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The decisions of one repetition's tenants, counted together: the
/// repetition's wall time is cut wherever the count passes a multiple of
/// [`TILE_ORDERS`]. The tenants share the machine's two CPUs, so one
/// tenant's fast stretch is the other's slow one: cut per tenant, the
/// fastest tiles added up to a repetition nobody could ever see (1.7 s
/// where no repetition ran under 2.1 s).
///
/// For every tile to hold the same work in every repetition, the tenants
/// of `serve_journal` also meet here before they drop their sockets: both
/// journals are then replayed side by side, in the tile after the count of
/// `TENANTS * RESUME_AFTER`, and not whenever each tenant happens to get
/// there.
#[derive(Default)]
struct Progress {
    decided: AtomicUsize,
    cuts: Mutex<Vec<Instant>>,
    at_resume_point: AtomicUsize,
}

impl Progress {
    fn decided_at(&self, now: Instant) {
        let total = self.decided.fetch_add(1, Ordering::Relaxed) + 1;
        if total.is_multiple_of(TILE_ORDERS) {
            self.cuts
                .lock()
                .expect("no tenant panics holding it")
                .push(now);
        }
    }

    /// Waits until every tenant has drained its window at the resume
    /// point. Polls asleep rather than blocking on a barrier: a tenant that
    /// failed on the way must not hang the others.
    fn meet_at_resume_point(&self) -> Result<(), String> {
        self.at_resume_point.fetch_add(1, Ordering::AcqRel);
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.at_resume_point.load(Ordering::Acquire) < TENANTS {
            if Instant::now() > deadline {
                return Err("another tenant never reached its resume point".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }
}

/// What one tenant's episode over the wire produced.
struct TenantRun {
    latencies_ms: Vec<f64>,
    metrics: EpisodeMetrics,
    err_frames: usize,
    hello_ms: f64,
    drain_ms: f64,
    /// `RESUME` sent → first post-resume frame, when the tenant resumed.
    resume_ms: Option<f64>,
    /// Seconds per `ORDER` + `FLUSH` write pair (traced runs only).
    write_secs: Vec<f64>,
    tracer: Option<Tracer>,
}

/// Reconnects and `RESUME`s, retrying while the dying predecessor session
/// still holds the journal claim. Returns the client and the instant the
/// accepted `RESUME` was sent.
fn resume(
    addr: SocketAddr,
    name: &str,
    token: &str,
    ack: usize,
) -> Result<(ServeClient, Instant), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut client = ServeClient::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
        let sent = Instant::now();
        match client.resume(name, token, ack) {
            Ok(_) => return Ok((client, sent)),
            Err(ClientError::Rejected { code, .. })
                if code == "session-active" && Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(format!("resume: {e}")),
        }
    }
}

/// Drives one tenant: a closed loop keeping up to [`WINDOW`] orders
/// outstanding, each timed from its `ORDER` write to its parsed
/// `DECISION`. With `resume_after`, the tenant stops sending there, lets
/// the window drain, drops the socket and resumes with its frame count.
fn run_tenant(
    world: &ServeWorld,
    tenant: usize,
    resume_after: Option<usize>,
    progress: &Progress,
    mut tracer: Option<Tracer>,
    rep: u32,
) -> Result<TenantRun, String> {
    let orders = &world.streams[tenant];
    let began = Instant::now();
    let Session {
        mut client,
        name,
        token,
    } = world.connect(tenant)?;
    let greeted = Instant::now();
    let hello_ms = (greeted - began).as_secs_f64() * 1e3;
    let root = tracer.as_mut().map_or(NO_PARENT, |t| {
        let root = t.open("tenant", began, NO_PARENT, rep);
        t.record("server.hello", began, greeted, root, rep);
        root
    });

    let n = orders.len();
    let mut sent_at: Vec<Instant> = Vec::with_capacity(n);
    let mut latencies_ms = Vec::with_capacity(n);
    let mut write_secs = Vec::new();
    let (mut decided, mut ack, mut err_frames) = (0usize, 0usize, 0usize);
    let mut resume_at = resume_after;
    let mut resume_sent: Option<Instant> = None;
    let mut resume_ms = None;

    while decided < n {
        while sent_at.len() < n
            && sent_at.len() - decided < WINDOW
            && resume_at != Some(sent_at.len())
        {
            let o = &orders[sent_at.len()];
            let t0 = Instant::now();
            client
                .order(
                    o.pickup.0,
                    o.delivery.0,
                    o.quantity,
                    o.created.seconds(),
                    o.deadline.seconds(),
                )
                .and_then(|_| client.flush(flush_at(o)))
                .map_err(|e| format!("{name}: write: {e}"))?;
            if tracer.is_some() {
                write_secs.push(t0.elapsed().as_secs_f64());
            }
            sent_at.push(t0);
        }
        if resume_at == Some(decided) {
            // Window drained: an abrupt socket death, no DRAIN — the
            // journal survives and the episode is rebuilt from it.
            progress.meet_at_resume_point()?;
            drop(client);
            let (resumed, sent) = resume(world.addr, &name, &token, ack)?;
            client = resumed;
            resume_sent = Some(sent);
            resume_at = None;
            continue;
        }
        loop {
            let msg = client
                .next_msg()
                .map_err(|e| format!("{name}: read: {e}"))?;
            let now = Instant::now();
            if let Some(sent) = resume_sent.take() {
                resume_ms = Some((now - sent).as_secs_f64() * 1e3);
                if let Some(t) = tracer.as_mut() {
                    t.record("server.resume_replay", sent, now, root, rep);
                }
            }
            match msg {
                Some(ServerMsg::Decision(d)) => {
                    ack += 1;
                    if d.order.index() != decided {
                        return Err(format!(
                            "{name}: expected the decision of order {decided}, got {}",
                            d.order.index()
                        ));
                    }
                    latencies_ms.push((now - sent_at[decided]).as_secs_f64() * 1e3);
                    if let Some(t) = tracer.as_mut() {
                        t.record("server.request", sent_at[decided], now, root, rep);
                    }
                    decided += 1;
                    progress.decided_at(now);
                    break;
                }
                Some(ServerMsg::Epoch { .. }) | Some(ServerMsg::Disrupt(_)) => ack += 1,
                Some(ServerMsg::Err { code, detail }) => {
                    eprintln!("ledger: {name}: ERR {code} {detail}");
                    err_frames += 1;
                }
                Some(_) => {}
                None => return Err(format!("{name}: server hung up mid-episode")),
            }
        }
    }

    let drain_began = Instant::now();
    client.drain().map_err(|e| format!("{name}: drain: {e}"))?;
    let episode = client
        .collect_episode()
        .map_err(|e| format!("{name}: drain read: {e}"))?;
    let drain_ended = Instant::now();
    if let Some(t) = tracer.as_mut() {
        t.record("server.drain", drain_began, drain_ended, root, rep);
        t.close(root, drain_ended);
    }
    err_frames += episode.errors.len();
    let metrics = episode
        .metrics
        .ok_or_else(|| format!("{name}: episode ended without METRICS"))?;
    Ok(TenantRun {
        latencies_ms,
        metrics,
        err_frames,
        hello_ms,
        drain_ms: (drain_ended - drain_began).as_secs_f64() * 1e3,
        resume_ms,
        write_secs,
        tracer,
    })
}

/// One repetition: every tenant's episode, concurrently.
struct Rep {
    runs: Vec<TenantRun>,
    began: Instant,
    ended: Instant,
    /// The repetition's wall time in tiles: up to the first
    /// [`TILE_ORDERS`] decisions (handshakes included), every further
    /// [`TILE_ORDERS`], the drains.
    tiles: Vec<f64>,
}

fn run_rep(
    world: &ServeWorld,
    journaled: bool,
    origin: Option<Instant>,
    rep: u32,
) -> Result<Rep, String> {
    let resume_after = journaled.then_some(RESUME_AFTER);
    let progress = Progress::default();
    let began = Instant::now();
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|tenant| {
                let tracer = origin.map(Tracer::with_origin);
                let progress = &progress;
                scope.spawn(move || run_tenant(world, tenant, resume_after, progress, tracer, rep))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a tenant thread panicked".to_string())?
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let ended = Instant::now();
    let mut bounds = progress.cuts.into_inner().map_err(|e| e.to_string())?;
    // Two tenants stamp and count a few instructions apart.
    bounds.sort();
    bounds.insert(0, began);
    bounds.push(ended);
    Ok(Rep {
        runs,
        began,
        ended,
        tiles: tiles(&bounds),
    })
}

/// The same command streams through `Simulator::serve` on a channel, no
/// socket: the reference the TCP `METRICS` must match bit for bit, with
/// every committed plan audited. Returns per-tenant metrics plus the wall
/// and CPU seconds the episodes took.
fn replay_in_process(
    world: &ServeWorld,
    audit: bool,
    out: &mut Outcome,
) -> Option<(Vec<EpisodeMetrics>, f64, f64)> {
    let instance = build_instance(PRESET)?;
    let sharding = shard_config(PRESET)?;
    let pool = Arc::new(ThreadPool::new(world.pool_width));
    let mut all = Vec::new();
    let (mut wall, mut cpu) = (0.0, 0.0);
    for (tenant, orders) in world.streams.iter().enumerate() {
        let mut policy = build_policy(POLICY)?;
        let sim = Simulator::builder(&instance)
            .sharding(sharding.clone())
            .seed(world.seed + tenant as u64)
            .thread_pool(Arc::clone(&pool))
            .build()
            .ok()?;
        let (tx, rx) = std::sync::mpsc::channel();
        for o in orders {
            let _ = tx.send(StreamCommand::Order(o.clone()));
            let _ = tx.send(StreamCommand::Flush {
                at: TimePoint::from_seconds(flush_at(o)),
            });
        }
        drop(tx);
        let mut auditor = PlanAuditor::new(orders);
        let cpu0 = procfs::cpu_secs().unwrap_or(f64::NAN);
        let t0 = Instant::now();
        let result = if audit {
            sim.serve_observed(rx, policy.as_mut(), &mut [&mut auditor])
        } else {
            sim.serve(rx, policy.as_mut())
        };
        wall += t0.elapsed().as_secs_f64();
        cpu += procfs::cpu_secs().unwrap_or(f64::NAN) - cpu0;
        if audit {
            out.failed += auditor.infeasible;
            out.check(
                auditor.infeasible == 0 && auditor.decisions == orders.len() as u64,
                || {
                    format!(
                        "tenant {tenant}: {} of {} decisions, {} plans fail re-simulation",
                        auditor.decisions,
                        orders.len(),
                        auditor.infeasible
                    )
                },
            );
        }
        all.push(result.metrics);
    }
    Some((all, wall, cpu))
}

/// Output checks of one repetition against the in-process reference.
fn check_rep(out: &mut Outcome, runs: &[TenantRun], reference: &[EpisodeMetrics]) {
    for (tenant, (run, expected)) in runs.iter().zip(reference).enumerate() {
        let m = &run.metrics;
        let decided = run.latencies_ms.len();
        out.failed +=
            (ORDERS_PER_TENANT - decided.min(ORDERS_PER_TENANT)) as u64 + run.err_frames as u64;
        out.check(run.err_frames == 0, || {
            format!("tenant {tenant}: {} ERR frames", run.err_frames)
        });
        out.check(m.served + m.rejections.total() == ORDERS_PER_TENANT, || {
            format!(
                "tenant {tenant}: served {} + rejected {} != {ORDERS_PER_TENANT}",
                m.served,
                m.rejections.total()
            )
        });
        out.check(m == expected, || {
            format!("tenant {tenant}: TCP METRICS differ from the in-process replay")
        });
        out.check(m.total_cost.is_finite() && m.ttl.is_finite(), || {
            format!("tenant {tenant}: non-finite metrics")
        });
    }
}

/// One repetition's request latencies, tenant after tenant.
fn latencies_of(runs: &[TenantRun]) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect()
}

pub fn run(journaled: bool, workload: &Workload, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let build = || ServeWorld::build(journaled, workload.pool_width, args.seed);
    let (mut setup, world) = SetupTimer::first(build);
    let world = match world {
        Ok(world) => world,
        Err(e) => {
            out.problem(e);
            return out;
        }
    };
    let Some((reference, inproc_wall, _)) = replay_in_process(&world, true, &mut out) else {
        out.problem("the in-process reference replay could not be built");
        return out;
    };
    let per_rep = TENANTS * ORDERS_PER_TENANT;
    let quality = Quality {
        orders: per_rep,
        served: reference.iter().map(|m| m.served).sum(),
        nuv: reference.iter().map(|m| m.nuv).sum(),
        total_cost: reference.iter().map(|m| m.total_cost).sum(),
    };

    // The warm-up repetition: its tiles join the quiet times (cold
    // caches only ever make it slower), its wall time is not a sample.
    let warm = match run_rep(&world, journaled, None, 0) {
        Ok(rep) => rep,
        Err(e) => {
            out.problem(e);
            return out;
        }
    };
    let warmup_wall = (warm.ended - warm.began).as_secs_f64();
    check_rep(&mut out, &warm.runs, &reference);

    if args.trace {
        trace_serve(
            journaled,
            workload,
            args,
            &world,
            &reference,
            (warmup_wall, inproc_wall),
            &mut out,
        );
        return out;
    }

    let mut reps = RepLoop::start(args);
    let (mut wall_tiles, mut latencies_ms) = (Quiet::default(), Quiet::default());
    wall_tiles.observe(&warm.tiles);
    latencies_ms.observe(&latencies_of(&warm.runs));
    while reps.again() {
        let rep = match reps.rep(|| run_rep(&world, journaled, None, 0)) {
            Ok(rep) => rep,
            Err(e) => {
                out.problem(e);
                return out;
            }
        };
        check_rep(&mut out, &rep.runs, &reference);
        let same_shape =
            wall_tiles.observe(&rep.tiles) & latencies_ms.observe(&latencies_of(&rep.runs));
        out.check(same_shape, || {
            "repetitions differ in their number of decisions".to_string()
        });
        if reps.peak_taken() {
            if let Err(e) = setup.again(build) {
                out.problem(format!("a later set-up sample failed: {e}"));
            }
        }
    }
    let panics = world.server.as_ref().map_or(0, |s| s.stats().panics);
    out.failed += panics as u64;
    out.check(panics == 0, || format!("{panics} session panics"));
    out.attempted = (per_rep * reps.walls.len()) as u64;
    report_end_to_end(
        &mut out,
        workload,
        TimedPhase {
            reps: &reps,
            setup: &setup,
            tiles: &wall_tiles,
            latencies_ms: &latencies_ms,
            orders_per_rep: per_rep,
            quality,
        },
    );
    out
}

/// The traced run: untraced and traced repetitions alternate; the traced
/// ones stamp every write and request client-side.
fn trace_serve(
    journaled: bool,
    workload: &Workload,
    args: &RunArgs,
    world: &ServeWorld,
    reference: &[EpisodeMetrics],
    (warmup_wall, audited_inproc_wall): (f64, f64),
    out: &mut Outcome,
) {
    let mut tracer = Tracer::new();
    let origin = tracer.origin();
    let (mut hello_ms, mut drain_ms, mut resume_ms, mut write_secs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut plain_cpu = 0.0;
    let mut rep = 0;
    let walls = alternate(args.seconds, |traced| {
        rep += u32::from(traced);
        let cpu0 = procfs::cpu_secs().unwrap_or(f64::NAN);
        let this = run_rep(world, journaled, traced.then_some(origin), rep)?;
        check_rep(out, &this.runs, reference);
        if !traced {
            plain_cpu += procfs::cpu_secs().unwrap_or(f64::NAN) - cpu0;
            return Ok(this.tiles);
        }
        let root = tracer.record("rep", this.began, this.ended, NO_PARENT, rep);
        let tiles = this.tiles;
        for run in this.runs {
            hello_ms.push(run.hello_ms);
            drain_ms.push(run.drain_ms);
            resume_ms.extend(run.resume_ms);
            write_secs.extend(run.write_secs);
            if let Some(t) = run.tracer {
                tracer.absorb(t, root);
            }
        }
        Ok(tiles)
    });
    let (plain, traced) = match walls {
        Ok(walls) => walls,
        Err(e) => {
            out.problem(e);
            return;
        }
    };
    let per_rep = (TENANTS * ORDERS_PER_TENANT) as f64;
    out.attempted = (per_rep as usize * (plain.reps() + traced.reps())) as u64;
    out.set("server.hello_ms", stats::median(&hello_ms));
    out.set("server.drain_ms", stats::median(&drain_ms));
    out.set("server.write_us", stats::median(&write_secs) * 1e6);
    if journaled {
        let replay_ms = stats::median(&resume_ms);
        out.set("server.resume_replay_ms", replay_ms);
        // Each replayed order is two commands: ORDER and FLUSH.
        out.set(
            "server.resume_replay_us_per_cmd",
            replay_ms * 1e3 / (2 * RESUME_AFTER) as f64,
        );
    }
    report_trace_ratios(out, &plain, &traced, warmup_wall);

    // The in-process cost of the same command streams, unaudited.
    let unaudited = replay_in_process(world, false, out);
    let (inproc_wall, inproc_cpu) = unaudited
        .map_or((audited_inproc_wall, f64::NAN), |(_, wall, cpu)| {
            (wall, cpu)
        });
    out.set("sim.serve_inproc_us_per_order", inproc_wall * 1e6 / per_rep);
    let tcp_cpu_us = plain_cpu * 1e6 / (per_rep * plain.reps() as f64);
    out.set(
        "server.wire_overhead_us_per_order",
        tcp_cpu_us - inproc_cpu * 1e6 / per_rep,
    );

    if journaled {
        let dir = world.journal_dir.as_deref();
        match kernels::journal_append_ns(dir) {
            Some(ns) => out.set("server.journal_append_file_ns", ns),
            None => out.problem("the file journal kernel could not open a journal"),
        }
    } else {
        kernels::server_codec(out);
        match kernels::journal_append_ns(None) {
            Some(ns) => out.set("server.journal_append_mem_ns", ns),
            None => out.problem("the memory journal kernel could not open a journal"),
        }
    }
    if let Err(e) = tracer.write_jsonl(&trace_path(workload.name)) {
        out.problem(format!("cannot write the trace file: {e}"));
    }
}
