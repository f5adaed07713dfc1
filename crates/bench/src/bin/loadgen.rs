//! The chaos gate for the `dpdp-server` decision service.
//!
//! Spawns a server (idle deadline and debug frames on), drives N
//! concurrent tenants — each its own TCP session and episode — through a
//! deterministic order workload, and assigns each a seeded fault: a killed
//! connection + `RESUME`, an injected `PANIC` crash + `RESUME`,
//! malformed-frame floods, slow-loris partial writes, or going idle until
//! the server reaps it. The run passes only if *every* tenant still
//! converges to the exact in-process reference metrics, every injected
//! frame drew a structured `ERR`, and the server's supervision counters
//! account for every fault; anything else exits non-zero. Results land in
//! `target/experiments/BENCH_chaos.json`.
//!
//! This binary measures no speed. Serving throughput and decision latency
//! are the perf ledger's `serve_closed` / `serve_journal` workloads
//! (`BENCHMARK.json`), and multi-tenant protocol correctness without
//! faults is `crates/server/tests/socket_parity.rs`.
//!
//! ```text
//! cargo run --release -p dpdp-bench --bin loadgen -- \
//!     --tenants 4 --orders 24 --threads 2
//! ```

use dpdp_bench::write_artifact;
use dpdp_net::{NodeId, Order, OrderId, TimePoint};
use dpdp_server::{
    token_from_ok_detail, ClientError, DecisionServer, ServeClient, ServerConfig, ServerMsg,
};
use dpdp_sim::{BufferingMode, EpisodeMetrics, Simulator, StreamCommand};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const USAGE: &str = "\
options:
  --tenants N   concurrent tenant sessions (default 4)
  --orders N    orders per tenant, at least 8 (default 50)
  --threads N   server scoring pool width (default 2)
  --queue N     per-session command queue bound (default 64)
  --seed N      base seed; tenant i uses seed + i (default 7)
  --policy P    dispatch policy for every tenant (default baseline1)
  -h, --help    print this help";

fn fail_usage(msg: &str) -> ! {
    eprintln!("loadgen: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct LoadCli {
    tenants: usize,
    orders: usize,
    threads: usize,
    queue: usize,
    seed: u64,
    policy: String,
}

fn parse_cli() -> LoadCli {
    let mut cli = LoadCli {
        tenants: 4,
        orders: 50,
        threads: 2,
        queue: 64,
        seed: 7,
        policy: "baseline1".to_string(),
    };
    fn num(it: &mut std::slice::Iter<'_, String>, name: &str) -> usize {
        match it.next().and_then(|v| v.parse().ok()) {
            Some(v) if v >= 1 => v,
            _ => fail_usage(&format!("flag `{name}` needs a positive integer")),
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--tenants" => cli.tenants = num(&mut it, "--tenants"),
            "--orders" => cli.orders = num(&mut it, "--orders"),
            "--threads" => cli.threads = num(&mut it, "--threads"),
            "--queue" => cli.queue = num(&mut it, "--queue"),
            "--seed" => cli.seed = num(&mut it, "--seed") as u64,
            "--policy" => match it.next() {
                Some(v) => cli.policy = v.clone(),
                None => fail_usage("flag `--policy` needs a value"),
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => fail_usage(&format!("unknown flag `{other}`")),
        }
    }
    cli
}

/// The chaos server's idle deadline. Generous enough that only the
/// deliberately-silent ghost tenant ever trips it, small enough that the
/// gate still runs in seconds.
const CHAOS_IDLE: Duration = Duration::from_secs(3);

/// xorshift64* — the whole chaos schedule must replay from `--seed`.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One tenant's assigned misfortune.
#[derive(Clone, Copy)]
enum Fault {
    /// Connection killed mid-episode, resumed; later an injected `PANIC`
    /// crash, resumed again.
    KillThenPanic,
    /// Garbage and oversized frames interleaved with real orders.
    MalformedFlood,
    /// Order frames dripped out a few bytes at a time.
    SlowLoris,
    /// Goes silent until the server's idle deadline reaps it, then
    /// resumes.
    IdleGhost,
}

fn fault_for(tenant: usize) -> (Fault, &'static str) {
    match tenant % 4 {
        0 => (Fault::KillThenPanic, "kill+panic"),
        1 => (Fault::MalformedFlood, "malformed-flood"),
        2 => (Fault::SlowLoris, "slow-loris"),
        _ => (Fault::IdleGhost, "idle-ghost"),
    }
}

/// The deterministic per-tenant workload — shared by the wire run and
/// the in-process reference, so the two must land identical episodes.
fn chaos_order(tenant: usize, k: usize) -> (u32, u32, f64, f64) {
    let pickup = 1 + ((k * 5 + tenant) % 12) as u32;
    let delivery = 1 + ((k * 5 + tenant + 4) % 12) as u32;
    let created_s = 8.0 * 3600.0 + 30.0 * k as f64;
    let deadline_s = created_s + 6.0 * 3600.0;
    (pickup, delivery, created_s, deadline_s)
}

/// Replays the tenant's exact command stream (`ORDER` + `FLUSH`
/// heartbeat per order) through an in-process `Simulator::serve` — the
/// metrics every chaos tenant must converge to, faults notwithstanding.
fn chaos_reference(tenant: usize, cli: &LoadCli) -> Result<EpisodeMetrics, String> {
    let instance = dpdp_server::preset::build_instance("ring12")
        .ok_or_else(|| "unknown preset ring12".to_string())?;
    let mut policy = dpdp_server::preset::build_policy(&cli.policy)
        .ok_or_else(|| format!("unknown policy {}", cli.policy))?;
    let sim = Simulator::builder(&instance)
        .buffering(BufferingMode::Immediate)
        .seed(cli.seed + tenant as u64)
        .build()
        .map_err(|e| e.to_string())?;
    let (tx, rx) = std::sync::mpsc::channel();
    for k in 0..cli.orders {
        let (pickup, delivery, created_s, deadline_s) = chaos_order(tenant, k);
        let order = Order::new(
            OrderId(0),
            NodeId(pickup),
            NodeId(delivery),
            3.0,
            TimePoint::from_seconds(created_s),
            TimePoint::from_seconds(deadline_s),
        )
        .map_err(|e| e.to_string())?;
        let _ = tx.send(StreamCommand::Order(order));
        let _ = tx.send(StreamCommand::Flush {
            at: TimePoint::from_seconds(created_s + 1.0),
        });
    }
    drop(tx);
    Ok(sim.serve(rx, policy.as_mut()).metrics)
}

/// Reconnects and `RESUME`s a tenant, retrying while the dying
/// predecessor session still holds the journal claim.
fn chaos_resume(
    addr: SocketAddr,
    name: &str,
    token: &str,
    ack: usize,
) -> Result<ServeClient, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut client =
            ServeClient::connect(addr).map_err(|e| format!("{name}: reconnect: {e}"))?;
        match client.resume(name, token, ack) {
            Ok(_) => return Ok(client),
            Err(ClientError::Rejected { code, .. })
                if code == "session-active" && Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(format!("{name}: resume: {e}")),
        }
    }
}

struct ChaosOutcome {
    tenant: usize,
    fault: &'static str,
    resumes: usize,
    injected: usize,
    decisions: usize,
    metrics_match: bool,
}

fn run_chaos_tenant(
    addr: SocketAddr,
    tenant: usize,
    cli: &LoadCli,
) -> Result<ChaosOutcome, String> {
    let (fault, fault_name) = fault_for(tenant);
    let mut rng = Rng::new(cli.seed ^ ((tenant as u64 + 1).wrapping_mul(0x0123_4567_89ab_cdef)));
    let reference =
        chaos_reference(tenant, cli).map_err(|e| format!("tenant {tenant}: reference: {e}"))?;
    let name = format!("chaos{tenant}");
    let oversized = "X".repeat(20 * 1024);

    let mut client =
        ServeClient::connect(addr).map_err(|e| format!("tenant {tenant}: connect: {e}"))?;
    let detail = client
        .hello(&name, "ring12", cli.seed + tenant as u64, &cli.policy, 0.0)
        .map_err(|e| format!("tenant {tenant}: handshake: {e}"))?;
    let token = token_from_ok_detail(&detail)
        .ok_or_else(|| format!("tenant {tenant}: OK HELLO carried no token"))?
        .to_string();

    // The seeded interruption schedule (orders >= 8 keeps every range
    // non-degenerate; run_chaos enforces that).
    let kill_at = 1 + rng.below(cli.orders / 2 - 1);
    let panic_at = kill_at + 1 + rng.below(cli.orders - kill_at - 2);
    let ghost_at = 1 + rng.below(cli.orders - 2);

    let mut ack = 0usize;
    let mut decisions = 0usize;
    let mut resumes = 0usize;
    let mut injected = 0usize;
    let mut pending_errors = 0usize;

    for k in 0..cli.orders {
        match fault {
            Fault::KillThenPanic => {
                if k == kill_at {
                    // Abrupt socket death, no DRAIN: the journal survives.
                    drop(client);
                    client = chaos_resume(addr, &name, &token, ack)?;
                    resumes += 1;
                } else if k == panic_at {
                    client
                        .send_line("PANIC")
                        .map_err(|e| format!("tenant {tenant}: panic frame: {e}"))?;
                    loop {
                        match client.next_msg() {
                            Ok(Some(ServerMsg::Err { code, .. })) if code == "internal" => break,
                            Ok(Some(ServerMsg::Epoch { .. })) | Ok(Some(ServerMsg::Disrupt(_))) => {
                                ack += 1;
                            }
                            Ok(Some(ServerMsg::Metrics(_))) => {
                                return Err(format!(
                                    "tenant {tenant}: crashed session reported METRICS"
                                ));
                            }
                            Ok(Some(_)) => {}
                            Ok(None) => {
                                return Err(format!(
                                    "tenant {tenant}: hung up before ERR internal"
                                ));
                            }
                            Err(e) => return Err(format!("tenant {tenant}: panic read: {e}")),
                        }
                    }
                    client = chaos_resume(addr, &name, &token, ack)?;
                    resumes += 1;
                }
            }
            Fault::IdleGhost => {
                if k == ghost_at {
                    // Outlive the idle deadline; the server reaps the
                    // socket through the drain path and keeps the journal.
                    std::thread::sleep(CHAOS_IDLE + Duration::from_millis(600));
                    let mut reaped = false;
                    loop {
                        match client.next_msg() {
                            Ok(Some(ServerMsg::Err { code, .. })) if code == "idle-timeout" => {
                                reaped = true;
                            }
                            Ok(Some(ServerMsg::Epoch { .. })) | Ok(Some(ServerMsg::Disrupt(_))) => {
                                ack += 1;
                            }
                            Ok(Some(ServerMsg::Decision(_))) => {
                                return Err(format!(
                                    "tenant {tenant}: unexpected decision while idle"
                                ));
                            }
                            Ok(Some(ServerMsg::Bye)) | Ok(None) | Err(_) => break,
                            Ok(Some(_)) => {} // the partial episode's METRICS
                        }
                    }
                    if !reaped {
                        return Err(format!("tenant {tenant}: idle ghost was never reaped"));
                    }
                    client = chaos_resume(addr, &name, &token, ack)?;
                    resumes += 1;
                }
            }
            Fault::MalformedFlood => {
                if rng.below(3) == 0 {
                    let garbage = match rng.below(3) {
                        0 => "BOGUS 1 2 3",
                        1 => "ORDER not numbers at all",
                        _ => oversized.as_str(),
                    };
                    client
                        .send_line(garbage)
                        .map_err(|e| format!("tenant {tenant}: garbage frame: {e}"))?;
                    injected += 1;
                    pending_errors += 1;
                }
            }
            Fault::SlowLoris => {}
        }

        let (pickup, delivery, created_s, deadline_s) = chaos_order(tenant, k);
        if matches!(fault, Fault::SlowLoris) && k % 7 == 3 {
            // Drip the frame out a few bytes at a time: partial frames
            // must neither wedge the reader nor corrupt parsing.
            let frame = format!("ORDER {pickup} {delivery} 3 {created_s} {deadline_s}\n");
            for chunk in frame.as_bytes().chunks(4) {
                client
                    .send_bytes(chunk)
                    .map_err(|e| format!("tenant {tenant}: loris chunk: {e}"))?;
                std::thread::sleep(Duration::from_millis(15));
            }
        } else {
            client
                .order(pickup, delivery, 3.0, created_s, deadline_s)
                .map_err(|e| format!("tenant {tenant}: order {k}: {e}"))?;
        }
        client
            .flush(created_s + 1.0)
            .map_err(|e| format!("tenant {tenant}: flush {k}: {e}"))?;

        // Block until this order's decision; structured errors are only
        // acceptable when we provoked them.
        loop {
            match client.next_msg() {
                Ok(Some(ServerMsg::Decision(d))) => {
                    ack += 1;
                    if d.order.index() != k {
                        return Err(format!(
                            "tenant {tenant}: expected decision for order {k}, got {}",
                            d.order.index()
                        ));
                    }
                    decisions += 1;
                    break;
                }
                Ok(Some(ServerMsg::Epoch { .. })) | Ok(Some(ServerMsg::Disrupt(_))) => ack += 1,
                Ok(Some(ServerMsg::Err { code, detail })) => {
                    if pending_errors == 0 {
                        return Err(format!("tenant {tenant}: unexpected ERR {code} {detail}"));
                    }
                    pending_errors -= 1;
                }
                Ok(Some(_)) => {}
                Ok(None) => return Err(format!("tenant {tenant}: server hung up mid-episode")),
                Err(e) => return Err(format!("tenant {tenant}: read: {e}")),
            }
        }
    }

    client
        .drain()
        .map_err(|e| format!("tenant {tenant}: drain: {e}"))?;
    let episode = client
        .collect_episode()
        .map_err(|e| format!("tenant {tenant}: drain read: {e}"))?;
    for (code, detail) in &episode.errors {
        if pending_errors == 0 {
            return Err(format!("tenant {tenant}: unexpected ERR {code} {detail}"));
        }
        pending_errors -= 1;
    }
    if pending_errors != 0 {
        return Err(format!(
            "tenant {tenant}: {pending_errors} injected frames drew no ERR"
        ));
    }
    decisions += episode.decisions.len();
    if decisions != cli.orders {
        return Err(format!(
            "tenant {tenant}: {decisions} decisions for {} orders",
            cli.orders
        ));
    }
    let metrics = episode
        .metrics
        .ok_or_else(|| format!("tenant {tenant}: episode ended without METRICS"))?;
    Ok(ChaosOutcome {
        tenant,
        fault: fault_name,
        resumes,
        injected,
        decisions,
        metrics_match: metrics == reference,
    })
}

fn main() {
    let cli = parse_cli();
    if cli.orders < 8 {
        fail_usage("`--orders` must be at least 8 for a non-degenerate fault schedule");
    }
    let server = DecisionServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            threads: cli.threads,
            queue_depth: cli.queue,
            idle_timeout: Some(CHAOS_IDLE),
            debug_frames: true,
            ..ServerConfig::default()
        },
    )
    .and_then(DecisionServer::spawn)
    .unwrap_or_else(|e| {
        eprintln!("loadgen: cannot start chaos server: {e}");
        std::process::exit(1);
    });
    let addr = server.addr();

    let wall = Instant::now();
    let outcomes: Vec<ChaosOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cli.tenants)
            .map(|tenant| {
                let cli = &cli;
                scope.spawn(move || run_chaos_tenant(addr, tenant, cli))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(Ok(outcome)) => outcome,
                Ok(Err(msg)) => {
                    eprintln!("loadgen: chaos: {msg}");
                    std::process::exit(1);
                }
                Err(_) => {
                    eprintln!("loadgen: chaos tenant thread panicked");
                    std::process::exit(1);
                }
            })
            .collect()
    });
    let wall_secs = wall.elapsed().as_secs_f64();
    let stats = server.stats();
    server.shutdown();

    let mismatches = outcomes.iter().filter(|o| !o.metrics_match).count();
    let total_resumes: usize = outcomes.iter().map(|o| o.resumes).sum();
    let total_injected: usize = outcomes.iter().map(|o| o.injected).sum();
    let kill_tenants = (0..cli.tenants).filter(|t| t % 4 == 0).count();
    let ghost_tenants = (0..cli.tenants).filter(|t| t % 4 == 3).count();

    let mut rows = String::new();
    for o in &outcomes {
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"tenant\": {}, \"fault\": \"{}\", \"resumes\": {}, \"injected_frames\": {}, \
             \"decisions\": {}, \"metrics_match\": {}}}",
            o.tenant, o.fault, o.resumes, o.injected, o.decisions, o.metrics_match,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"chaos\",\n  \"preset\": \"ring12\",\n  \"policy\": \"{}\",\n  \
         \"tenants\": {},\n  \"orders_per_tenant\": {},\n  \"threads\": {},\n  \"seed\": {},\n  \
         \"wall_secs\": {:.3},\n  \"resumes\": {},\n  \"supervised_panics\": {},\n  \
         \"reaped\": {},\n  \"injected_frames\": {},\n  \"metric_mismatches\": {},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        cli.policy,
        cli.tenants,
        cli.orders,
        cli.threads,
        cli.seed,
        wall_secs,
        total_resumes,
        stats.panics,
        stats.reaped,
        total_injected,
        mismatches,
        rows,
    );
    match write_artifact("BENCH_chaos.json", &json) {
        Some(path) => println!("wrote {}", path.display()),
        None => {
            eprintln!("loadgen: cannot write BENCH_chaos.json");
            std::process::exit(1);
        }
    }
    println!(
        "chaos: {} tenants x {} orders in {wall_secs:.2}s -> {total_resumes} resumes, \
         {} supervised panics, {} reaped, {total_injected} injected frames, \
         {mismatches} metric mismatches",
        cli.tenants, cli.orders, stats.panics, stats.reaped,
    );

    if mismatches > 0 {
        eprintln!("loadgen: FAIL: {mismatches} tenants diverged from their reference metrics");
        std::process::exit(1);
    }
    if stats.panics < kill_tenants {
        eprintln!(
            "loadgen: FAIL: expected >= {kill_tenants} supervised panics, saw {}",
            stats.panics
        );
        std::process::exit(1);
    }
    if stats.reaped < ghost_tenants {
        eprintln!(
            "loadgen: FAIL: expected >= {ghost_tenants} idle reaps, saw {}",
            stats.reaped
        );
        std::process::exit(1);
    }
    if stats.resumed < total_resumes {
        eprintln!(
            "loadgen: FAIL: clients resumed {total_resumes} times but the server counted {}",
            stats.resumed
        );
        std::process::exit(1);
    }
}
