//! # dpdp-server — a socket front-end for the dispatch simulator
//!
//! The paper's system runs as an *online* service: orders stream in over
//! the network, dispatch decisions stream back. This crate is that
//! front-end for the reproduction — a dependency-free (`std::net` only)
//! TCP decision service in which **one connection is one tenant is one
//! live episode** of [`Simulator::serve`]. Disjoint tenants (cities, in
//! the paper's decomposition) share compute — a single [`dpdp_pool`]
//! scoring pool — but no state.
//!
//! ```text
//! accept loop ── conn ──> session thread ──sync_channel──> sim thread
//!                           │  parses frames                 │ Simulator::serve
//!                           └── ERR replies                  └── DECISION/EPOCH/… frames
//! ```
//!
//! ## Wire protocol
//!
//! Newline-delimited frames of whitespace-separated ASCII tokens; all
//! times are raw **seconds** (`f64`, shortest round-trip printing, so
//! values parse back bit-identically). Client → server:
//!
//! ```text
//! HELLO <tenant> <preset> <seed> [policy] [buffer_mins] [shards]   open the episode
//! RESUME <tenant> <token> [ack]                           rebuild an interrupted episode
//! ORDER <pickup> <delivery> <qty> <created_s> <deadline_s>
//! CANCEL <order> <at_s>
//! BREAKDOWN <vehicle> <at_s>
//! RECOVER <vehicle> <at_s>
//! FLUSH <at_s>                                            time heartbeat
//! STATS                                                   server lifetime counters
//! DRAIN                                                   finish gracefully
//! ```
//!
//! Server → client:
//!
//! ```text
//! OK HELLO <tenant> preset=.. policy=.. seed=.. orders_base=.. vehicles=.. shards=.. token=..
//! OK RESUME <tenant> preset=.. policy=.. seed=.. replayed=.. ack=.. token=..
//! EPOCH <index> <now_s> <orders>
//! DECISION <order> <vehicle|-> <reason> <time_s>
//! DISRUPT <time_s> cancel|breakdown|recover ...
//! METRICS served=.. rejected=.. nuv=.. ttl=.. total_cost=.. avg_response_s=.. rej_*=..
//! STATS active=.. total=.. panics=.. shed=.. reaped=.. resumed=..
//! ERR <code> <detail>
//! BYE
//! ```
//!
//! (A debug-only `PANIC` frame — honoured when the server runs with
//! [`ServerConfig::debug_frames`] — crashes the session thread on
//! purpose so tests can exercise supervision; otherwise it draws
//! `ERR debug-disabled`.)
//!
//! The grammar has one definition, in [`proto`]: one parser per
//! direction ([`proto::parse_command`], [`proto::parse_server_msg`]) and
//! one writer per message type — `Display` for [`Command`] and for
//! [`ServerMsg`]. The client, the session, the supervisor and the journal
//! files write every frame through it, greetings included ([`Greeting`]:
//! the tenant positional, the `key=value` fields named), and a seeded
//! property checks `parse(format(x)) == x` over every variant, each `f64`
//! field bit-equal.
//!
//! ## Session lifecycle
//!
//! 1. **Handshake** — the first meaningful frame must be `HELLO`; anything
//!    else (or an unknown preset/policy, or an invalid shard count) draws
//!    an `ERR` and the server keeps waiting. On success the server replies
//!    `OK HELLO …` carrying `orders_base`, the id the first streamed order
//!    will get, and `shards`, the resolved shard layout's cell count. Each
//!    preset registers a default [`ShardConfig`](dpdp_sim::ShardConfig)
//!    (see [`preset::shard_config`]); the optional trailing `shards` token
//!    overrides it with a flat layout — sharding partitions scoring work
//!    but never changes decisions, so episodes stay bit-identical across
//!    layouts.
//! 2. **Streaming** — each parsed frame becomes a
//!    [`StreamCommand`](dpdp_sim::StreamCommand) pushed into the episode.
//!    Malformed or invalid frames (bad numbers, unknown vehicle, an order
//!    the instance's road network rejects) are answered with structured
//!    `ERR <code> <detail>` lines and **never** tear the connection down
//!    or reach the engine.
//! 3. **Drain** — on `DRAIN` or EOF the session drops the command queue's
//!    sender; the engine treats the hang-up as end-of-stream, flushes
//!    every remaining buffered epoch, and the session emits the final
//!    `METRICS` frame followed by `BYE`.
//!
//! ## Backpressure
//!
//! Each session's command queue is a *bounded* [`sync_channel`]. A tenant
//! producing faster than its episode decides blocks its own session
//! thread on `send`, which stops that socket from being read and lets the
//! kernel's TCP window throttle that client — and only that client. Slow
//! (or stalled, or vanished) consumers of the decision stream likewise
//! hurt only themselves: a failed write marks the session's observer dead
//! and the episode still drains cleanly server-side.
//!
//! ## Determinism contract
//!
//! An episode is a pure function of the `HELLO` parameters and the
//! ordered command stream. The same `(preset, seed, policy, buffer)` and
//! the same frames — over TCP, or pushed in-process through
//! [`Simulator::serve`], or replayed via
//! [`ReplaySource`](dpdp_sim::ReplaySource) — produce bit-identical
//! decisions and [`EpisodeMetrics`](dpdp_sim::EpisodeMetrics), regardless
//! of pool width, tenant count, or wall-clock timing of the frames. The
//! socket-parity suite in `tests/` enforces exactly this.
//!
//! ## Failure model & recovery
//!
//! The service assumes **fail-stop** faults — dropped connections,
//! panicking sessions, stalled or vanished peers, process restarts (with
//! a file-backed journal dir) — and recovers through the determinism
//! contract above:
//!
//! - **Write-ahead journaling.** A `HELLO` opens a per-tenant
//!   [`journal`] recording the episode spec and every
//!   accepted command *before* it reaches the engine, and answers with a
//!   `token=` credential. Journals live in an in-memory registry by
//!   default; `--journal-dir` mirrors them to disk as replayable wire
//!   transcripts (`TOKEN` line, `HELLO` header, one command per line)
//!   that survive a server process restart, not a power loss: the files
//!   are written to the operating system, never synced (see [`journal`]).
//! - **Deterministic resume.** `RESUME <tenant> <token> [ack]` replays
//!   the journal through a fresh engine. `ack` is the count of episode
//!   frames (`EPOCH` + `DECISION` + `DISRUPT`, in emission order) the
//!   client already received; the server suppresses exactly that prefix
//!   and the stream continues bit-identically where it broke. Only
//!   `DRAIN` finishes (deletes) a journal — EOF, resets, idle reaps, and
//!   panics all leave it resumable. One live session per tenant journal;
//!   a second claim draws `ERR session-active`, a wrong credential
//!   `ERR bad-token`, an unknown tenant `ERR unknown-session`.
//! - **Supervision.** Session threads run under `catch_unwind`: a panic
//!   (engine bug, or an injected `PANIC` debug frame) answers
//!   `ERR internal <payload>` + `BYE`, closes that socket, bumps the
//!   `panics` counter, and the process keeps serving every other tenant.
//! - **Deadlines & shedding.** `--idle-timeout` reaps sockets with no
//!   complete frame before the deadline (`ERR idle-timeout`, journal
//!   kept); frames are capped at 16 KiB (`ERR frame-too-long`);
//!   `--max-sessions` sheds connects beyond the cap with
//!   `ERR overloaded` instead of accepting unservable sockets.
//! - **Graceful drain.** [`ServerHandle::shutdown_drain`] stops
//!   accepting, lets active episodes finish within `--drain-timeout`,
//!   then force-closes stragglers — reporting which via
//!   [`DrainOutcome`].
//!
//! The `session_recovery` test suite proves over TCP that
//! kill-mid-episode + `RESUME` is bit-identical to an uninterrupted run.
//! The session itself reads and writes any byte stream, so the crate's
//! unit tests also drive it over an in-memory pipe: a seeded chaos test
//! gives four concurrent tenants one fault each (a kill and a panic, each
//! resumed; a malformed flood; slow-loris frames; an idle ghost) and
//! checks that every tenant still converges to its uninterrupted metrics,
//! and a seeded byte fuzz feeds one session random and mutated streams.
//!
//! [`Simulator::serve`]: dpdp_sim::Simulator::serve
//! [`sync_channel`]: std::sync::mpsc::sync_channel

#![deny(missing_docs)]

pub mod client;
pub mod journal;
#[cfg(test)]
mod pipe;
pub mod preset;
pub mod proto;
mod server;
mod session;

pub use client::{ClientError, Episode, ServeClient};
pub use proto::{
    token_from_ok_detail, Command, Greeting, Opened, ProtoError, ServerMsg, SessionSpec,
    StatsSnapshot, WireDecision,
};
pub use server::{DecisionServer, DrainOutcome, ServerConfig, ServerHandle};
