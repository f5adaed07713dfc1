//! The accept loop: a [`DecisionServer`] binds a TCP listener and hands
//! each connection to a dedicated, **supervised** session thread. All
//! sessions share one [`ThreadPool`] for epoch scoring — compute is
//! pooled, episode state is not (tenants are fully isolated, per the
//! paper's disjoint-city decomposition).
//!
//! Supervision, in three layers:
//!
//! - **Panics die alone.** Each session runs under
//!   [`std::panic::catch_unwind`]; a panicking session answers its own
//!   client `ERR internal <payload>` + `BYE` and increments a counter —
//!   the process, the accept loop, and every other tenant keep serving.
//! - **Load is shed, not queued to death.** With
//!   [`ServerConfig::max_sessions`] set, a connection beyond the cap is
//!   answered `ERR overloaded` and closed instead of being accepted into
//!   a service that cannot serve it.
//! - **Shutdown can drain.** [`ServerHandle::shutdown_drain`] stops
//!   accepting, lets active episodes finish, and force-closes whatever is
//!   still attached when the drain deadline passes.

use crate::journal::JournalStore;
use crate::proto::{ProtoError, ServerMsg, StatsSnapshot};
use crate::session::{run_session, send_line, SessionContext};
use dpdp_pool::ThreadPool;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of a [`DecisionServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Width of the shared scoring pool (1 = serial scoring; decisions are
    /// identical either way, only wall time moves).
    pub threads: usize,
    /// Bound of each session's command queue. Small values apply
    /// backpressure sooner; the bound never affects decisions.
    pub queue_depth: usize,
    /// Directory for file-backed command journals. `None` (the default)
    /// keeps journals in memory: `RESUME` survives dropped connections
    /// but not a server process restart.
    pub journal_dir: Option<PathBuf>,
    /// Per-socket read deadline. A session idle past it is reaped with
    /// `ERR idle-timeout` through the ordinary drain path (its journal
    /// stays resumable). `None` (the default) waits forever.
    pub idle_timeout: Option<Duration>,
    /// Cap on concurrently active sessions. Connections beyond it are
    /// shed with `ERR overloaded` instead of accepted. `None` (the
    /// default) accepts without bound.
    pub max_sessions: Option<usize>,
    /// How long [`ServerHandle::shutdown_drain`] lets active episodes
    /// finish before force-closing their sockets.
    pub drain_timeout: Duration,
    /// Accept debug frames (`PANIC`) — test and chaos harness only.
    pub debug_frames: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 1,
            queue_depth: 64,
            journal_dir: None,
            idle_timeout: None,
            max_sessions: None,
            drain_timeout: Duration::from_secs(5),
            debug_frames: false,
        }
    }
}

/// Lifetime counters, all monotone except `active`. Snapshot via
/// [`ServerHandle::stats`] or the wire `STATS` frame.
#[derive(Debug, Default)]
pub(crate) struct ServerStats {
    pub(crate) active: AtomicUsize,
    pub(crate) total: AtomicUsize,
    pub(crate) panics: AtomicUsize,
    pub(crate) shed: AtomicUsize,
    pub(crate) reaped: AtomicUsize,
    pub(crate) resumed: AtomicUsize,
}

impl ServerStats {
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            active: self.active.load(Ordering::Acquire),
            total: self.total.load(Ordering::Acquire),
            panics: self.panics.load(Ordering::Acquire),
            shed: self.shed.load(Ordering::Acquire),
            reaped: self.reaped.load(Ordering::Acquire),
            resumed: self.resumed.load(Ordering::Acquire),
        }
    }
}

struct Shared {
    ctx: SessionContext,
    /// Each session socket's read timeout (`None` = wait forever).
    idle_timeout: Option<Duration>,
    shutdown: AtomicBool,
    drain_timeout: Duration,
    session_seq: AtomicU64,
    /// Live session sockets, for force-close at the drain deadline.
    sessions: Mutex<HashMap<u64, TcpStream>>,
}

/// A bound, not-yet-running decision service. Call [`run`](Self::run) to
/// serve on the current thread or [`spawn`](Self::spawn) for a background
/// accept loop with a shutdown handle.
pub struct DecisionServer {
    listener: TcpListener,
    shared: Arc<Shared>,
    max_sessions: Option<usize>,
}

impl DecisionServer {
    /// Binds the listener. `addr` may use port 0 to let the OS pick (read
    /// it back with [`local_addr`](Self::local_addr)).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<DecisionServer> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            ctx: SessionContext {
                pool: Arc::new(ThreadPool::new(config.threads)),
                queue_depth: config.queue_depth.max(1),
                stats: Arc::new(ServerStats::default()),
                journals: Arc::new(JournalStore::new(config.journal_dir)),
                debug_frames: config.debug_frames,
            },
            idle_timeout: config.idle_timeout,
            shutdown: AtomicBool::new(false),
            drain_timeout: config.drain_timeout,
            session_seq: AtomicU64::new(0),
            sessions: Mutex::new(HashMap::new()),
        });
        Ok(DecisionServer {
            listener,
            shared,
            max_sessions: config.max_sessions,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until [`ServerHandle::shutdown`] (or a listener
    /// error). Each accepted socket gets its own named, supervised session
    /// thread; accept errors on individual connections are skipped, not
    /// fatal.
    pub fn run(self) -> io::Result<()> {
        let stats = Arc::clone(&self.shared.ctx.stats);
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.shared.shutdown.load(Ordering::Acquire) {
                return Ok(());
            }
            // Shed load past the session cap: an unservable socket gets a
            // structured refusal, not a seat it would starve in.
            if let Some(cap) = self.max_sessions {
                if stats.active.load(Ordering::Acquire) >= cap {
                    stats.shed.fetch_add(1, Ordering::AcqRel);
                    let _ = stream.set_nodelay(true);
                    let writer = Mutex::new(&stream);
                    let shed = ProtoError::new("overloaded", format!("session cap {cap} reached"));
                    let _ = send_line(&writer, &shed.into()) && send_line(&writer, &ServerMsg::Bye);
                    continue;
                }
            }
            stats.active.fetch_add(1, Ordering::AcqRel);
            stats.total.fetch_add(1, Ordering::AcqRel);
            let id = self.shared.session_seq.fetch_add(1, Ordering::Relaxed);
            if let Ok(clone) = stream.try_clone() {
                self.shared
                    .sessions
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .insert(id, clone);
            }
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("dpdp-session".into())
                .spawn(move || serve_connection(stream, id, &shared))?;
        }
    }

    /// Moves the accept loop to a background thread and returns a handle
    /// for address discovery, stats, and shutdown.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let join = std::thread::Builder::new()
            .name("dpdp-accept".into())
            .spawn(move || {
                let _ = self.run();
            })?;
        Ok(ServerHandle { addr, shared, join })
    }
}

/// Runs one session under [`catch_unwind`](std::panic::catch_unwind): a
/// panic anywhere in the session (frame handling, or a sim-thread panic
/// propagated through the scoped join) is confined to this connection.
/// The supervisor answers the client `ERR internal <payload>` + `BYE` and
/// bumps the panic counter. Returns whether the session panicked.
pub(crate) fn supervise_session<R: Read, W: Write + Send>(
    reader: R,
    writer: W,
    ctx: &SessionContext,
) -> bool {
    let writer = Mutex::new(writer);
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| run_session(reader, &writer, ctx)));
    let Err(panic) = outcome else {
        return false;
    };
    ctx.stats.panics.fetch_add(1, Ordering::AcqRel);
    let payload = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "session panicked".to_string());
    // One line only: the payload must not smuggle frame delimiters.
    let payload = payload.replace(['\n', '\r'], " ");
    let crash = ProtoError::new("internal", payload);
    let _ = send_line(&writer, &crash.into()) && send_line(&writer, &ServerMsg::Bye);
    true
}

/// The TCP shell around [`supervise_session`]: socket options, the read
/// timeout that is the idle deadline, and the bookkeeping an unwound
/// session can no longer release itself.
fn serve_connection(stream: TcpStream, id: u64, shared: &Shared) {
    // Decision frames are small and latency-bound: never Nagle them.
    let _ = stream.set_nodelay(true);
    // The idle deadline applies from the first byte: a connection that
    // never completes a handshake is reaped like a mid-episode ghost.
    if shared.idle_timeout.is_some() {
        let _ = stream.set_read_timeout(shared.idle_timeout);
    }
    if let Ok(read_half) = stream.try_clone() {
        if supervise_session(read_half, &stream, &shared.ctx) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
    shared
        .sessions
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .remove(&id);
    shared.ctx.stats.active.fetch_sub(1, Ordering::AcqRel);
}

/// How a [`ServerHandle::shutdown_drain`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainOutcome {
    /// Every active session finished inside the drain deadline.
    Drained,
    /// The deadline passed; this many sessions were force-closed.
    ForcedClose(usize),
}

/// Handle to a spawned [`DecisionServer`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    join: JoinHandle<()>,
}

impl ServerHandle {
    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time health snapshot (the same numbers the wire `STATS`
    /// frame reports).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.ctx.stats.snapshot()
    }

    /// Stops accepting and joins the accept thread, with the configured
    /// [`ServerConfig::drain_timeout`]. See
    /// [`shutdown_drain_within`](Self::shutdown_drain_within).
    pub fn shutdown_drain(self) -> DrainOutcome {
        let timeout = self.shared.drain_timeout;
        self.shutdown_drain_within(timeout)
    }

    /// Graceful shutdown: stop accepting (new connects are refused at the
    /// OS level once the listener closes), let active episodes finish on
    /// their own, and — if any are still attached when `timeout` passes —
    /// force-close their sockets, which funnels them through the ordinary
    /// EOF drain path (journals stay resumable by a future server).
    pub fn shutdown_drain_within(self, timeout: Duration) -> DrainOutcome {
        self.stop_accepting();
        let deadline = Instant::now() + timeout;
        let stats = &self.shared.ctx.stats;
        while stats.active.load(Ordering::Acquire) > 0 {
            if Instant::now() >= deadline {
                let sessions = self
                    .shared
                    .sessions
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                let forced = sessions.len();
                for stream in sessions.values() {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                }
                drop(sessions);
                // The force-closed sessions unwind through their normal
                // exit; give them a bounded moment to update the counter.
                let grace = Instant::now() + Duration::from_secs(2);
                while stats.active.load(Ordering::Acquire) > 0 && Instant::now() < grace {
                    std::thread::sleep(Duration::from_millis(2));
                }
                return DrainOutcome::ForcedClose(forced);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        DrainOutcome::Drained
    }

    /// Stops accepting new connections and joins the accept thread.
    /// Sessions already running drain on their own (their episodes end at
    /// client `DRAIN`/EOF).
    pub fn shutdown(self) {
        self.stop_accepting();
    }

    fn stop_accepting(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection; the
        // session it would spawn is suppressed by the flag.
        let _ = TcpStream::connect(self.addr);
        // The accept thread exits, dropping the listener: subsequent
        // connects are refused by the OS.
        while !self.join.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
