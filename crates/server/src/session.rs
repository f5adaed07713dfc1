//! One connection = one session = one live episode.
//!
//! The session is written against any byte stream: it reads frames from a
//! [`Read`] and writes them to a [`Write`] behind a mutex, so the same
//! code serves a TCP connection (`server.rs` hands it the socket's two
//! halves) and the in-memory pipe the crate's tests drive it through.
//! The session thread owns the read half. After the `HELLO` (or `RESUME`)
//! handshake it spawns a scoped *sim thread* running
//! [`Simulator::serve_observed`] over a **bounded** command queue
//! ([`std::sync::mpsc::sync_channel`]) while the session thread keeps
//! parsing frames into [`StreamCommand`]s:
//!
//! ```text
//! reader ──read──> session thread ──sync_channel(depth)──> sim thread ──write──> writer
//!                    │ journal append                        │ suppress first `ack` frames on resume
//! ```
//!
//! Backpressure falls out of the bounded queue: when a tenant produces
//! commands faster than its episode consumes them, `send` blocks the
//! session thread, the socket stops being read, and the kernel's TCP
//! window throttles *that client only* — no shared state, so no other
//! tenant stalls. Protocol errors are answered with `ERR <code> <detail>`
//! lines and the connection stays up; only `DRAIN`, EOF, an I/O error, or
//! the idle deadline end the episode (dropping the queue's sender, which
//! the engine treats as end-of-stream — see the EOF contract on
//! [`Simulator::serve`]).
//!
//! Fault tolerance (see the crate docs' failure model):
//!
//! - every accepted command is appended to the tenant's write-ahead
//!   [`Journal`](crate::journal::Journal) *before* it reaches the engine;
//! - `RESUME` rebuilds an interrupted episode by pushing the journaled
//!   commands through a fresh engine first, suppressing re-emission of
//!   the first `ack` already-delivered episode frames;
//! - frames are read through a **bounded** line reader — an oversized
//!   frame draws `ERR frame-too-long` (and is discarded) instead of
//!   growing an unbounded buffer;
//! - a read that fails with `TimedOut` or `WouldBlock` is the idle
//!   deadline (a socket's read timeout, set from
//!   [`ServerConfig::idle_timeout`]): the session is reaped with
//!   `ERR idle-timeout` through the ordinary drain path.
//!
//! [`Simulator::serve`]: dpdp_sim::Simulator::serve
//! [`Simulator::serve_observed`]: dpdp_sim::Simulator::serve_observed
//! [`StreamCommand`]: dpdp_sim::StreamCommand
//! [`ServerConfig::idle_timeout`]: crate::ServerConfig::idle_timeout

use crate::journal::{ActiveClaim, Journal, JournalStore};
use crate::preset::{build_instance, build_policy, shard_config, POLICY_NAMES, PRESET_NAMES};
use crate::proto::{
    line, parse_command, Command, Greeting, Opened, ProtoError, ServerMsg, SessionSpec,
    WireDecision,
};
use crate::server::ServerStats;
use dpdp_net::{Instance, Order, OrderId, TimeDelta};
use dpdp_pool::ThreadPool;
use dpdp_sim::{
    BufferingMode, DecisionRecord, DisruptionRecord, EpochInfo, ShardConfig, SimObserver,
    Simulator, StreamCommand,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};

/// Shared per-server session parameters.
pub(crate) struct SessionContext {
    /// The scoring pool every episode shares.
    pub pool: Arc<ThreadPool>,
    /// Bound of each session's command queue (≥ 1).
    pub queue_depth: usize,
    /// The server's lifetime counters.
    pub stats: Arc<ServerStats>,
    /// The per-tenant write-ahead journal registry.
    pub journals: Arc<JournalStore>,
    /// Whether debug frames (`PANIC`) are honoured.
    pub debug_frames: bool,
}

/// Hard bound on one wire frame. Real frames are tens of bytes; anything
/// near this bound is a bug or an attack, and the reader answers
/// `ERR frame-too-long` instead of buffering without limit.
pub(crate) const MAX_LINE_BYTES: usize = 16 * 1024;

/// One read attempt's outcome, from the bounded line reader.
enum Frame {
    /// A complete line (newline stripped, lossy UTF-8).
    Line(String),
    /// The line exceeded [`MAX_LINE_BYTES`]; it was consumed and dropped.
    TooLong,
    /// Clean end-of-stream.
    Eof,
    /// The idle deadline passed with no complete frame.
    TimedOut,
    /// The connection died (reset, broken pipe, …).
    Lost,
}

/// A line reader with a hard per-line byte bound — the fix for the
/// giant-frame OOM hole: an oversized line is consumed chunk-by-chunk and
/// discarded, never accumulated.
struct LineReader<R> {
    inner: BufReader<R>,
}

impl<R: Read> LineReader<R> {
    fn new(reader: R) -> LineReader<R> {
        LineReader {
            inner: BufReader::new(reader),
        }
    }

    fn next_frame(&mut self) -> Frame {
        let mut buf: Vec<u8> = Vec::new();
        let mut overflow = false;
        loop {
            let (consumed, newline_at) = match self.inner.fill_buf() {
                Ok([]) => {
                    // EOF: a final unterminated line still counts.
                    return if overflow {
                        Frame::TooLong
                    } else if buf.is_empty() {
                        Frame::Eof
                    } else {
                        Frame::Line(finish_line(buf))
                    };
                }
                Ok(chunk) => {
                    let newline_at = chunk.iter().position(|&b| b == b'\n');
                    let take = newline_at.map_or(chunk.len(), |p| p);
                    if !overflow {
                        if buf.len() + take > MAX_LINE_BYTES {
                            overflow = true;
                            buf.clear();
                        } else {
                            buf.extend_from_slice(&chunk[..take]);
                        }
                    }
                    (newline_at.map_or(chunk.len(), |p| p + 1), newline_at)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Frame::TimedOut;
                }
                Err(_) => return Frame::Lost,
            };
            self.inner.consume(consumed);
            if newline_at.is_some() {
                return if overflow {
                    Frame::TooLong
                } else {
                    Frame::Line(finish_line(buf))
                };
            }
        }
    }
}

fn finish_line(mut buf: Vec<u8>) -> String {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8_lossy(&buf).into_owned()
}

/// Writes one frame, by [`ServerMsg`]'s one writer, with a single
/// `write_all`; returns `false` once the client is unreachable.
pub(crate) fn send_line<W: Write>(writer: &Mutex<W>, msg: &ServerMsg) -> bool {
    let frame = line(msg);
    // A writer poisoned by a panicking holder still owns a usable stream.
    let mut guard = writer.lock().unwrap_or_else(|p| p.into_inner());
    guard.write_all(frame.as_bytes()).is_ok()
}

/// Bridges episode observations onto the wire as `EPOCH` / `DECISION` /
/// `DISRUPT` lines. A write failure marks the observer dead: the episode
/// keeps running to a clean drain, it just stops narrating. On a resumed
/// episode, the first `skip` frames — the ones the client acknowledged
/// receiving before the interruption — are suppressed: the replay is
/// deterministic, so frame `ack` onward is exactly the continuation.
struct WireObserver<'w, W> {
    writer: &'w Mutex<W>,
    dead: bool,
    skip: usize,
}

impl<W: Write> WireObserver<'_, W> {
    fn emit(&mut self, msg: &ServerMsg) {
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        if !self.dead {
            self.dead = !send_line(self.writer, msg);
        }
    }
}

impl<W: Write> SimObserver for WireObserver<'_, W> {
    fn on_epoch(&mut self, epoch: &EpochInfo) {
        self.emit(&ServerMsg::Epoch {
            index: epoch.index,
            now_s: epoch.now.seconds(),
            num_orders: epoch.num_orders,
        });
    }

    fn on_decision(&mut self, record: &DecisionRecord<'_>) {
        let a = record.assignment;
        self.emit(&ServerMsg::Decision(WireDecision {
            order: a.order,
            vehicle: a.vehicle,
            reason: a.reason,
            time_s: a.time.seconds(),
        }));
    }

    fn on_disruption(&mut self, record: &DisruptionRecord) {
        self.emit(&record.into());
    }
}

/// Largest flat shard count a `HELLO` override may request. Shards beyond
/// the node count waste partition work without changing decisions, and an
/// absurd count is almost certainly a client bug — answer with a
/// structured error instead of silently clamping.
const MAX_WIRE_SHARDS: u64 = 1024;

/// Resolves a validated spec's buffering mode and shard layout — shared
/// by the `HELLO` and `RESUME` paths so a resumed episode is configured
/// exactly like the original.
fn resolve_spec(spec: &SessionSpec) -> Result<(BufferingMode, ShardConfig), ProtoError> {
    if !PRESET_NAMES.contains(&spec.preset.as_str()) {
        return Err(ProtoError::new(
            "unknown-preset",
            format!(
                "`{}`; valid presets: {}",
                spec.preset,
                PRESET_NAMES.join(", ")
            ),
        ));
    }
    if !POLICY_NAMES.contains(&spec.policy.as_str()) {
        return Err(ProtoError::new(
            "unknown-policy",
            format!(
                "`{}`; valid policies: {}",
                spec.policy,
                POLICY_NAMES.join(", ")
            ),
        ));
    }
    let sharding = match spec.shards {
        // Invariant: PRESET_NAMES checked above; see every_advertised_preset_registers_a_shard_config.
        None => shard_config(&spec.preset).expect("advertised presets register a shard layout"),
        Some(n) if n > MAX_WIRE_SHARDS => {
            return Err(ProtoError::new(
                "invalid-shards",
                format!("shard count {n} exceeds the serving cap of {MAX_WIRE_SHARDS}"),
            ));
        }
        Some(n) => ShardConfig::flat(n as usize)
            .map_err(|e| ProtoError::new("invalid-shards", e.to_string()))?,
    };
    let buffering = if spec.buffer_mins > 0.0 {
        BufferingMode::FixedInterval(TimeDelta::from_minutes(spec.buffer_mins))
    } else {
        BufferingMode::Immediate
    };
    Ok((buffering, sharding))
}

/// A claimed, validated way into an episode: fresh (`HELLO`) or rebuilt
/// from a journal (`RESUME`).
struct Opening {
    /// Whether the opening frame was `RESUME` (even of an empty journal
    /// with ack 0): it decides the greeting and the `resumed` counter.
    resumed: bool,
    spec: SessionSpec,
    buffering: BufferingMode,
    sharding: ShardConfig,
    journal: Arc<Mutex<Journal>>,
    claim: ActiveClaim,
    /// Journaled commands to re-inject before going live (empty on HELLO).
    replay: Vec<StreamCommand>,
    /// Episode frames to suppress during the replay.
    ack: usize,
    token: String,
}

fn open_hello(spec: SessionSpec, ctx: &SessionContext) -> Result<Opening, ProtoError> {
    let (buffering, sharding) = resolve_spec(&spec)?;
    let journal = ctx.journals.open(spec.clone())?;
    let token = journal
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .token
        .clone();
    Ok(Opening {
        resumed: false,
        spec,
        buffering,
        sharding,
        claim: ActiveClaim(Arc::clone(&journal)),
        journal,
        replay: Vec::new(),
        ack: 0,
        token,
    })
}

fn open_resume(
    tenant: &str,
    token: &str,
    ack: usize,
    ctx: &SessionContext,
) -> Result<Opening, ProtoError> {
    let journal = ctx.journals.resume(tenant, token)?;
    let claim = ActiveClaim(Arc::clone(&journal));
    let (spec, replay) = {
        let guard = journal.lock().unwrap_or_else(|p| p.into_inner());
        (guard.spec.clone(), guard.commands.clone())
    };
    // A file-loaded journal re-validates like a fresh HELLO would; a
    // registry drift (e.g. a journal written by a newer server) draws the
    // same structured errors. The claim guard releases on the error path;
    // on success the opening keeps it, so the journal stays held.
    let (buffering, sharding) = resolve_spec(&spec)?;
    Ok(Opening {
        resumed: true,
        spec,
        buffering,
        sharding,
        claim,
        journal,
        replay,
        ack,
        token: token.to_string(),
    })
}

/// How the command stream ended — decides the journal's fate.
#[derive(PartialEq, Eq)]
enum StreamEnd {
    /// Explicit `DRAIN`: the episode completed; the journal is finished.
    Drained,
    /// EOF, reset, reap, or send failure: the journal stays resumable.
    Interrupted,
}

/// Runs one session to completion, reading frames from `reader` and
/// writing every frame to `writer`. Never panics outward on client
/// misbehaviour — a failed read or write simply ends the session. (A
/// genuine panic — engine bug, or an injected `PANIC` debug frame —
/// unwinds into the supervisor in `server.rs`, which answers
/// `ERR internal` and keeps the process serving.)
pub(crate) fn run_session<R: Read, W: Write + Send>(
    reader: R,
    writer: &Mutex<W>,
    ctx: &SessionContext,
) {
    let mut reader = LineReader::new(reader);

    // Handshake: keep answering ERR until a valid HELLO or RESUME (or
    // EOF, or the idle deadline).
    let opening = loop {
        let line = match reader.next_frame() {
            Frame::Eof | Frame::Lost => return,
            Frame::TimedOut => {
                ctx.stats.reaped.fetch_add(1, Ordering::AcqRel);
                let reaped = ProtoError::new("idle-timeout", "no frame before the idle deadline");
                let _ = send_line(writer, &reaped.into());
                return;
            }
            Frame::TooLong => {
                if !send_line(writer, &frame_too_long().into()) {
                    return;
                }
                continue;
            }
            Frame::Line(line) => line,
        };
        let attempt = match parse_command(&line) {
            Ok(None) => continue,
            Ok(Some(Command::Stats)) => {
                if !send_line(writer, &ServerMsg::Stats(ctx.stats.snapshot())) {
                    return;
                }
                continue;
            }
            Ok(Some(Command::Panic)) => {
                if ctx.debug_frames {
                    panic!("PANIC debug frame: injected session crash");
                }
                Err(debug_disabled())
            }
            Ok(Some(Command::Hello(spec))) => open_hello(spec, ctx),
            Ok(Some(Command::Resume { tenant, token, ack })) => {
                open_resume(&tenant, &token, ack, ctx)
            }
            Ok(Some(_)) => Err(ProtoError::new(
                "expected-hello",
                "the first frame must be HELLO <tenant> <preset> <seed> [policy] [buffer_mins] \
                 [shards] or RESUME <tenant> <token> [ack]",
            )),
            Err(err) => Err(err),
        };
        match attempt {
            Ok(opening) => break opening,
            Err(err) => {
                if !send_line(writer, &err.into()) {
                    return;
                }
            }
        }
    };

    if opening.resumed {
        ctx.stats.resumed.fetch_add(1, Ordering::AcqRel);
    }
    // Invariant: resolve_spec checked PRESET_NAMES; see every_advertised_preset_builds_with_*.
    let instance = build_instance(&opening.spec.preset).expect("preset validated at opening");
    let opened = if opening.resumed {
        Opened::Resume {
            replayed: opening.replay.len(),
            ack: opening.ack,
        }
    } else {
        Opened::Hello {
            orders_base: instance.num_orders(),
            vehicles: instance.num_vehicles(),
            shards: opening.sharding.num_shards(),
        }
    };
    let greeting = ServerMsg::Ok(Greeting {
        tenant: opening.spec.tenant.clone(),
        preset: opening.spec.preset.clone(),
        policy: opening.spec.policy.clone(),
        seed: opening.spec.seed,
        opened,
        token: opening.token.clone(),
    });
    if !send_line(writer, &greeting) {
        return;
    }

    // Set by an injected PANIC right before unwinding: a crashed session
    // must not narrate a clean drain (METRICS + BYE) on its way down —
    // the supervisor's `ERR internal` + `BYE` is the only farewell.
    let crashed = AtomicBool::new(false);

    let (tx, rx) = sync_channel::<StreamCommand>(ctx.queue_depth.max(1));
    let end = std::thread::scope(|scope| {
        let sim_thread = scope.spawn(|| {
            // Invariant: resolve_spec checked POLICY_NAMES; see every_advertised_policy_builds.
            let mut policy =
                build_policy(&opening.spec.policy).expect("policy validated at opening");
            // Invariant: period > 0 (resolve_spec), ≥ 1 thread (ThreadPool::new), no disruptions.
            let sim = Simulator::builder(&instance)
                .buffering(opening.buffering)
                .sharding(opening.sharding.clone())
                .seed(opening.spec.seed)
                .thread_pool(Arc::clone(&ctx.pool))
                .build()
                .expect("presets build valid simulators");
            let mut observer = WireObserver {
                writer,
                dead: false,
                skip: opening.ack,
            };
            let result = sim.serve_observed(rx, policy.as_mut(), &mut [&mut observer]);
            // The episode is drained: final aggregates, then goodbye.
            if !crashed.load(Ordering::Acquire)
                && send_line(writer, &ServerMsg::Metrics(result.metrics))
            {
                send_line(writer, &ServerMsg::Bye);
            }
        });

        // Resume: re-inject the journal through the fresh engine before
        // reading live frames. The bounded queue applies backpressure to
        // the replay exactly as it would to the wire.
        let mut replay_ok = true;
        let mut streamed = 0usize;
        for cmd in &opening.replay {
            if matches!(cmd, StreamCommand::Order(_)) {
                streamed += 1;
            }
            if tx.send(cmd.clone()).is_err() {
                replay_ok = false;
                break;
            }
        }

        let end = if replay_ok {
            read_commands(
                &mut reader,
                writer,
                &instance,
                tx,
                &opening.journal,
                ctx,
                &crashed,
                streamed,
            )
        } else {
            drop(tx);
            StreamEnd::Interrupted
        };
        // Sender dropped (DRAIN / EOF / reap): the sim thread drains
        // remaining epochs and emits METRICS + BYE on its way out.
        let _ = sim_thread.join();
        end
    });

    drop(opening.claim);
    if end == StreamEnd::Drained {
        ctx.journals.finish(&opening.spec.tenant);
    }
}

fn frame_too_long() -> ProtoError {
    ProtoError::new(
        "frame-too-long",
        format!("frames are capped at {MAX_LINE_BYTES} bytes; the line was discarded"),
    )
}

fn debug_disabled() -> ProtoError {
    ProtoError::new(
        "debug-disabled",
        "PANIC is a debug frame; start the server with debug frames enabled to use it",
    )
}

/// The post-handshake read loop. Consumes `tx`; returning drops it, which
/// is the engine's end-of-stream signal. Every accepted command is
/// journaled before it is forwarded (write-ahead: an accepted command is
/// recovered even if it never reached the engine).
#[allow(clippy::too_many_arguments)] // session-internal plumbing
fn read_commands<R: Read, W: Write>(
    reader: &mut LineReader<R>,
    writer: &Mutex<W>,
    instance: &Instance,
    tx: std::sync::mpsc::SyncSender<StreamCommand>,
    journal: &Arc<Mutex<Journal>>,
    ctx: &SessionContext,
    crashed: &AtomicBool,
    mut streamed: usize,
) -> StreamEnd {
    // Streamed orders get ids dense after the (empty) replay table, in
    // send order — tracked here (seeded with the journal's replayed
    // orders) so CANCEL frames can be validated without asking the engine.
    let accept = |cmd: StreamCommand| -> bool {
        journal
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .append(cmd.clone());
        tx.send(cmd).is_ok()
    };
    loop {
        let line = match reader.next_frame() {
            Frame::Eof | Frame::Lost => return StreamEnd::Interrupted,
            Frame::TimedOut => {
                ctx.stats.reaped.fetch_add(1, Ordering::AcqRel);
                let reaped = ProtoError::new(
                    "idle-timeout",
                    "no frame before the idle deadline; episode drained, journal kept for RESUME",
                );
                let _ = send_line(writer, &reaped.into());
                return StreamEnd::Interrupted;
            }
            Frame::TooLong => {
                if !send_line(writer, &frame_too_long().into()) {
                    return StreamEnd::Interrupted;
                }
                continue;
            }
            Frame::Line(line) => line,
        };
        let command = match parse_command(&line) {
            Ok(None) => continue,
            Ok(Some(cmd)) => cmd,
            Err(err) => {
                if !send_line(writer, &err.into()) {
                    return StreamEnd::Interrupted;
                }
                continue;
            }
        };
        let reply = match command {
            Command::Hello(_) | Command::Resume { .. } => Some(ProtoError::new(
                "already-active",
                "this session already runs an episode",
            )),
            Command::Stats => {
                if !send_line(writer, &ServerMsg::Stats(ctx.stats.snapshot())) {
                    return StreamEnd::Interrupted;
                }
                None
            }
            Command::Panic => {
                if ctx.debug_frames {
                    crashed.store(true, Ordering::Release);
                    panic!("PANIC debug frame: injected session crash");
                }
                Some(debug_disabled())
            }
            Command::Order {
                pickup,
                delivery,
                quantity,
                created,
                deadline,
            } => {
                match Order::new(OrderId(0), pickup, delivery, quantity, created, deadline)
                    .map_err(|e| ProtoError::new("invalid-order", e.to_string()))
                    .and_then(|order| {
                        order
                            .validate_against(&instance.network)
                            .map_err(|e| ProtoError::new("invalid-order", e.to_string()))
                            .map(|_| order)
                    }) {
                    Ok(order) => {
                        if !accept(StreamCommand::Order(order)) {
                            return StreamEnd::Interrupted;
                        }
                        streamed += 1;
                        None
                    }
                    Err(err) => Some(err),
                }
            }
            Command::Cancel { order, at } => {
                if order.index() >= instance.num_orders() + streamed {
                    Some(ProtoError::new(
                        "unknown-order",
                        format!("order {} has not been streamed", order.index()),
                    ))
                } else if !accept(StreamCommand::Cancel { order, at }) {
                    return StreamEnd::Interrupted;
                } else {
                    None
                }
            }
            Command::Breakdown { vehicle, at } => {
                if vehicle.index() >= instance.num_vehicles() {
                    Some(ProtoError::new(
                        "unknown-vehicle",
                        format!("fleet has {} vehicles", instance.num_vehicles()),
                    ))
                } else if !accept(StreamCommand::Breakdown { vehicle, at }) {
                    return StreamEnd::Interrupted;
                } else {
                    None
                }
            }
            Command::Recover { vehicle, at } => {
                if vehicle.index() >= instance.num_vehicles() {
                    Some(ProtoError::new(
                        "unknown-vehicle",
                        format!("fleet has {} vehicles", instance.num_vehicles()),
                    ))
                } else if !accept(StreamCommand::Recover { vehicle, at }) {
                    return StreamEnd::Interrupted;
                } else {
                    None
                }
            }
            Command::Flush { at } => {
                if !accept(StreamCommand::Flush { at }) {
                    return StreamEnd::Interrupted;
                }
                None
            }
            Command::Drain => return StreamEnd::Drained,
        };
        if let Some(err) = reply {
            if !send_line(writer, &err.into()) {
                return StreamEnd::Interrupted;
            }
        }
    }
}

#[cfg(test)]
mod fuzz;
#[cfg(test)]
mod tests;
