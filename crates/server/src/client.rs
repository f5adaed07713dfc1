//! A blocking wire client for the decision service — the counterpart the
//! examples, the TCP-level test suites and the perf ledger's serving
//! workloads drive. It writes every frame through [`Command`]'s writer.

use crate::proto::{
    line, parse_server_msg, Command, Greeting, ProtoError, ServerMsg, SessionSpec, StatsSnapshot,
    WireDecision,
};
use dpdp_net::{NodeId, OrderId, TimePoint, VehicleId};
use dpdp_sim::EpisodeMetrics;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A wire time: the grammar carries finite seconds only.
fn time(at_s: f64) -> io::Result<TimePoint> {
    at_s.is_finite()
        .then(|| TimePoint::from_seconds(at_s))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "wire times are finite"))
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket died.
    Io(io::Error),
    /// The server spoke a frame this client cannot parse.
    Proto(ProtoError),
    /// The server answered `ERR <code> <detail>`.
    Rejected {
        /// Stable error class.
        code: String,
        /// Human-oriented detail.
        detail: String,
    },
    /// The server closed the connection mid-conversation.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Proto(e) => write!(f, "unparseable server frame: {e}"),
            ClientError::Rejected { code, detail } => write!(f, "server said ERR {code} {detail}"),
            ClientError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Everything a drained episode streamed back, split by frame kind.
#[derive(Debug, Default)]
pub struct Episode {
    /// `DECISION` frames, in commit order.
    pub decisions: Vec<WireDecision>,
    /// `EPOCH` frames as `(index, now_s, num_orders)`.
    pub epochs: Vec<(usize, f64, usize)>,
    /// Raw `DISRUPT` tails, in application order.
    pub disruptions: Vec<String>,
    /// `ERR` frames seen while draining, as `(code, detail)`.
    pub errors: Vec<(String, String)>,
    /// The final `METRICS` frame, when the episode drained cleanly.
    pub metrics: Option<EpisodeMetrics>,
}

/// A blocking client over one session connection.
pub struct ServeClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ServeClient {
    /// Connects to a [`DecisionServer`](crate::DecisionServer), retrying
    /// with capped exponential backoff (10 ms doubling to 500 ms, ~5 s
    /// total) while the connection is refused or interrupted. This
    /// closes the classic startup race: a client launched alongside the
    /// server no longer needs to sleep-and-hope before connecting. Any
    /// other error — unroutable address, permission — fails immediately.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut pause = Duration::from_millis(10);
        loop {
            match Self::connect_once(&addr) {
                Ok(client) => return Ok(client),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionRefused | io::ErrorKind::Interrupted
                    ) && Instant::now() + pause < deadline =>
                {
                    std::thread::sleep(pause);
                    pause = (pause * 2).min(Duration::from_millis(500));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Connects without retrying — one `connect(2)`, one verdict. The
    /// building block [`connect`](Self::connect) wraps in backoff; use it
    /// directly when a refused connection is the *expected* answer (e.g.
    /// probing that a draining server no longer accepts).
    pub fn connect_once(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let writer = TcpStream::connect(addr)?;
        // Command frames are small and latency-bound: never Nagle them.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(ServeClient { writer, reader })
    }

    /// Sends one command, written by [`Command`]'s writer.
    fn send(&mut self, cmd: &Command) -> io::Result<()> {
        self.writer.write_all(line(cmd).as_bytes())
    }

    /// Sends one raw frame (appending the newline). Public so tests can
    /// exercise malformed input.
    pub fn send_line(&mut self, frame: &str) -> io::Result<()> {
        self.writer.write_all(line(&frame).as_bytes())
    }

    /// Reads the next server frame; `Ok(None)` on EOF. Blank lines are
    /// skipped.
    pub fn next_msg(&mut self) -> Result<Option<ServerMsg>, ClientError> {
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            match parse_server_msg(line.trim_end_matches(['\r', '\n'])) {
                Ok(None) => continue,
                Ok(Some(msg)) => return Ok(Some(msg)),
                Err(e) => return Err(ClientError::Proto(e)),
            }
        }
    }

    /// Sends an opening frame (`HELLO` or `RESUME`) and returns the
    /// server's greeting.
    pub fn open(&mut self, cmd: &Command) -> Result<Greeting, ClientError> {
        self.send(cmd)?;
        match self.next_msg()? {
            Some(ServerMsg::Ok(greeting)) => Ok(greeting),
            Some(ServerMsg::Err { code, detail }) => Err(ClientError::Rejected { code, detail }),
            Some(_) | None => Err(ClientError::Closed),
        }
    }

    /// Opens the episode: sends `HELLO` and waits for the server's
    /// verdict. Returns the greeting after `OK ` on success.
    pub fn hello(
        &mut self,
        tenant: &str,
        preset: &str,
        seed: u64,
        policy: &str,
        buffer_mins: f64,
    ) -> Result<String, ClientError> {
        let spec = SessionSpec {
            tenant: tenant.to_string(),
            preset: preset.to_string(),
            seed,
            policy: policy.to_string(),
            buffer_mins,
            shards: None,
        };
        Ok(self.open(&Command::Hello(spec))?.to_string())
    }

    /// Resumes an interrupted episode from its journal: sends
    /// `RESUME <tenant> <token> <ack>` and waits for the verdict. `ack`
    /// is the number of episode frames (`EPOCH` + `DECISION` + `DISRUPT`)
    /// this client already received and processed; the server suppresses
    /// re-emission of exactly that prefix, so the stream picks up where
    /// it left off. Returns the `OK RESUME` detail line on success.
    pub fn resume(&mut self, tenant: &str, token: &str, ack: usize) -> Result<String, ClientError> {
        let cmd = Command::Resume {
            tenant: tenant.to_string(),
            token: token.to_string(),
            ack,
        };
        Ok(self.open(&cmd)?.to_string())
    }

    /// Asks the server for its lifetime counters (`STATS` frame). Works
    /// before the handshake and mid-episode alike.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        self.send(&Command::Stats)?;
        match self.next_msg()? {
            Some(ServerMsg::Stats(snapshot)) => Ok(snapshot),
            Some(ServerMsg::Err { code, detail }) => Err(ClientError::Rejected { code, detail }),
            Some(_) | None => Err(ClientError::Closed),
        }
    }

    /// Streams one order. Times are raw seconds and must be finite.
    pub fn order(
        &mut self,
        pickup: u32,
        delivery: u32,
        quantity: f64,
        created_s: f64,
        deadline_s: f64,
    ) -> io::Result<()> {
        self.send(&Command::Order {
            pickup: NodeId(pickup),
            delivery: NodeId(delivery),
            quantity,
            created: time(created_s)?,
            deadline: time(deadline_s)?,
        })
    }

    /// Cancels a streamed order.
    pub fn cancel(&mut self, order: u32, at_s: f64) -> io::Result<()> {
        self.send(&Command::Cancel {
            order: OrderId(order),
            at: time(at_s)?,
        })
    }

    /// Breaks a vehicle down.
    pub fn breakdown(&mut self, vehicle: u32, at_s: f64) -> io::Result<()> {
        self.send(&Command::Breakdown {
            vehicle: VehicleId(vehicle),
            at: time(at_s)?,
        })
    }

    /// Recovers a broken vehicle.
    pub fn recover(&mut self, vehicle: u32, at_s: f64) -> io::Result<()> {
        self.send(&Command::Recover {
            vehicle: VehicleId(vehicle),
            at: time(at_s)?,
        })
    }

    /// Sends a time heartbeat.
    pub fn flush(&mut self, at_s: f64) -> io::Result<()> {
        self.send(&Command::Flush { at: time(at_s)? })
    }

    /// Asks the server to drain the episode.
    pub fn drain(&mut self) -> io::Result<()> {
        self.send(&Command::Drain)
    }

    /// Half-closes the connection (no more frames will be sent) without
    /// touching the read side — the wire equivalent of hanging up the
    /// command channel. The server drains the episode exactly as on
    /// `DRAIN`.
    pub fn eof(&mut self) -> io::Result<()> {
        self.writer.shutdown(std::net::Shutdown::Write)
    }

    /// Reads frames until `BYE` (or EOF), bucketing them into an
    /// [`Episode`]. Call after [`drain`](Self::drain) — or right away, to
    /// passively consume a whole episode.
    pub fn collect_episode(&mut self) -> Result<Episode, ClientError> {
        let mut episode = Episode::default();
        while let Some(msg) = self.next_msg()? {
            match msg {
                ServerMsg::Decision(d) => episode.decisions.push(d),
                ServerMsg::Epoch {
                    index,
                    now_s,
                    num_orders,
                } => episode.epochs.push((index, now_s, num_orders)),
                ServerMsg::Disrupt(tail) => episode.disruptions.push(tail),
                ServerMsg::Err { code, detail } => episode.errors.push((code, detail)),
                ServerMsg::Metrics(m) => episode.metrics = Some(m),
                ServerMsg::Ok(_) | ServerMsg::Stats(_) => {}
                ServerMsg::Bye => return Ok(episode),
            }
        }
        Ok(episode)
    }
}
