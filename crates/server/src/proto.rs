//! Wire protocol: the line grammar, its one parser and its one writer per
//! direction.
//!
//! Both directions speak newline-delimited frames of whitespace-separated
//! ASCII tokens. Times travel as raw **seconds** (`f64`, printed with
//! Rust's shortest round-trip formatting), so a value parsed back from the
//! wire is bit-identical to the one the server computed — the property the
//! socket-parity suite leans on.
//!
//! Client → server frames are [`Command`]s, read by [`parse_command`];
//! server → client frames are [`ServerMsg`]s, read by [`parse_server_msg`].
//! Each type's `Display` is its one writer: every frame the crate puts on
//! the wire or in a journal file is written through it, so
//! `parse(format(x)) == x` over every variant (a seeded property in this
//! module's tests) is the proof that writer and parser agree. See the
//! crate docs for the full grammar.

use dpdp_net::{NodeId, OrderId, TimePoint, VehicleId};
use dpdp_sim::{
    CancelOutcome, DecisionReason, DisruptionKind, DisruptionRecord, EpisodeMetrics,
    RejectionCounts, StreamCommand,
};
use std::fmt::{self, Write as _};

/// A structured protocol error, sent to clients as `ERR <code> <detail>`.
///
/// Malformed frames never tear the connection down: the server replies
/// with one `ERR` line and keeps reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable machine-readable error class (e.g. `bad-arity`).
    pub code: &'static str,
    /// Human-oriented detail, single line.
    pub detail: String,
}

impl ProtoError {
    /// Builds an error with the given code and detail.
    pub fn new(code: &'static str, detail: impl Into<String>) -> Self {
        ProtoError {
            code,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

impl std::error::Error for ProtoError {}

/// The replayable `HELLO` configuration of a session — everything besides
/// the command stream that determines the episode.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Tenant label, echoed back; the journal registry key.
    pub tenant: String,
    /// Instance preset name (see [`crate::preset::PRESET_NAMES`]).
    pub preset: String,
    /// Episode seed.
    pub seed: u64,
    /// Dispatch policy name (see [`crate::preset::POLICY_NAMES`]).
    pub policy: String,
    /// Epoch buffering period in minutes; `0` = immediate dispatch.
    pub buffer_mins: f64,
    /// Optional flat shard-count override; `None` keeps the preset's
    /// registered [`ShardConfig`](dpdp_sim::ShardConfig). Sharding never
    /// changes decisions, only how scoring is partitioned.
    pub shards: Option<u64>,
}

/// One parsed client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `HELLO <tenant> <preset> <seed> [policy] [buffer_mins] [shards]` —
    /// opens the session's episode. An absent policy reads `baseline1`
    /// and an absent buffer `0`; the writer always writes both.
    Hello(SessionSpec),
    /// `ORDER <pickup> <delivery> <qty> <created_s> <deadline_s>`.
    Order {
        /// Pickup factory node.
        pickup: NodeId,
        /// Delivery factory node.
        delivery: NodeId,
        /// Demand quantity.
        quantity: f64,
        /// Creation time, seconds.
        created: TimePoint,
        /// Delivery deadline, seconds.
        deadline: TimePoint,
    },
    /// `CANCEL <order> <at_s>`.
    Cancel {
        /// The order to cancel (engine-assigned id).
        order: OrderId,
        /// Cancellation instant, seconds.
        at: TimePoint,
    },
    /// `BREAKDOWN <vehicle> <at_s>`.
    Breakdown {
        /// The vehicle that breaks down.
        vehicle: VehicleId,
        /// Breakdown instant, seconds.
        at: TimePoint,
    },
    /// `RECOVER <vehicle> <at_s>`.
    Recover {
        /// The vehicle that comes back into service.
        vehicle: VehicleId,
        /// Recovery instant, seconds.
        at: TimePoint,
    },
    /// `FLUSH <at_s>` — a pure heartbeat advancing virtual time.
    Flush {
        /// The instant virtual time is known to have reached, seconds.
        at: TimePoint,
    },
    /// `DRAIN` — finish the episode gracefully.
    Drain,
    /// `RESUME <tenant> <token> [ack]` — rebuild an interrupted episode
    /// from its command journal. `ack` is the number of episode frames
    /// (`EPOCH` + `DECISION` + `DISRUPT`, in emission order) the client
    /// already received before the interruption; the replay suppresses
    /// exactly that many before streaming live again.
    Resume {
        /// The tenant whose journal to replay.
        tenant: String,
        /// The session token `OK HELLO` issued for that journal.
        token: String,
        /// Count of episode frames already delivered (default 0).
        ack: usize,
    },
    /// `STATS` — ask for a server-health snapshot; answered with one
    /// `STATS` frame, valid before or during an episode.
    Stats,
    /// `PANIC` — debug-only: panic the session thread to exercise the
    /// supervision path. Refused with `ERR debug-disabled` unless the
    /// server was built with debug frames enabled.
    Panic,
}

/// The command's wire frame — the one writer of client frames.
impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Hello(s) => {
                write!(
                    f,
                    "HELLO {} {} {} {} {}",
                    s.tenant, s.preset, s.seed, s.policy, s.buffer_mins
                )?;
                match s.shards {
                    Some(n) => write!(f, " {n}"),
                    None => Ok(()),
                }
            }
            Command::Order {
                pickup,
                delivery,
                quantity,
                created,
                deadline,
            } => write!(
                f,
                "ORDER {} {} {quantity} {} {}",
                pickup.0,
                delivery.0,
                created.seconds(),
                deadline.seconds()
            ),
            Command::Cancel { order, at } => {
                write!(f, "CANCEL {} {}", order.index(), at.seconds())
            }
            Command::Breakdown { vehicle, at } => {
                write!(f, "BREAKDOWN {} {}", vehicle.index(), at.seconds())
            }
            Command::Recover { vehicle, at } => {
                write!(f, "RECOVER {} {}", vehicle.index(), at.seconds())
            }
            Command::Flush { at } => write!(f, "FLUSH {}", at.seconds()),
            Command::Drain => f.write_str("DRAIN"),
            Command::Resume { tenant, token, ack } => write!(f, "RESUME {tenant} {token} {ack}"),
            Command::Stats => f.write_str("STATS"),
            Command::Panic => f.write_str("PANIC"),
        }
    }
}

/// The frame of an engine command, as the journal writes it.
impl From<&StreamCommand> for Command {
    fn from(cmd: &StreamCommand) -> Command {
        match *cmd {
            StreamCommand::Order(ref o) => Command::Order {
                pickup: o.pickup,
                delivery: o.delivery,
                quantity: o.quantity,
                created: o.created,
                deadline: o.deadline,
            },
            StreamCommand::Cancel { order, at } => Command::Cancel { order, at },
            StreamCommand::Breakdown { vehicle, at } => Command::Breakdown { vehicle, at },
            StreamCommand::Recover { vehicle, at } => Command::Recover { vehicle, at },
            StreamCommand::Flush { at } => Command::Flush { at },
        }
    }
}

/// `frame` and its newline in one buffer, so a frame goes out in a single
/// `write_all` — the bytes the wire and the journal files carry.
pub(crate) fn line(frame: &impl fmt::Display) -> String {
    let mut line = String::with_capacity(64);
    // Writing into a `String` cannot fail.
    let _ = writeln!(line, "{frame}");
    line
}

fn parse_u64(tok: &str, what: &str) -> Result<u64, ProtoError> {
    tok.parse::<u64>()
        .map_err(|_| ProtoError::new("bad-number", format!("{what} `{tok}` is not an integer")))
}

fn parse_u32(tok: &str, what: &str) -> Result<u32, ProtoError> {
    tok.parse::<u32>()
        .map_err(|_| ProtoError::new("bad-number", format!("{what} `{tok}` is not an index")))
}

fn parse_f64(tok: &str, what: &str) -> Result<f64, ProtoError> {
    tok.parse::<f64>()
        .map_err(|_| ProtoError::new("bad-number", format!("{what} `{tok}` is not a number")))
}

/// A wire time: finite, non-negative seconds.
fn parse_time(tok: &str, what: &str) -> Result<TimePoint, ProtoError> {
    let secs = parse_f64(tok, what)?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(ProtoError::new(
            "bad-number",
            format!("{what} `{tok}` must be finite and non-negative seconds"),
        ));
    }
    Ok(TimePoint::from_seconds(secs))
}

fn arity(cmd: &str, got: usize, want: &str) -> ProtoError {
    ProtoError::new("bad-arity", format!("{cmd} takes {want}, got {got}"))
}

/// Parses one client frame. Blank lines are silently skipped (`Ok(None)`).
pub fn parse_command(line: &str) -> Result<Option<Command>, ProtoError> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    let Some((&cmd, args)) = toks.split_first() else {
        return Ok(None);
    };
    let command = match cmd {
        "HELLO" => {
            if !(3..=6).contains(&args.len()) {
                return Err(arity(
                    "HELLO",
                    args.len(),
                    "<tenant> <preset> <seed> [policy] [buffer_mins] [shards]",
                ));
            }
            let buffer_mins = match args.get(4) {
                Some(tok) => {
                    let v = parse_f64(tok, "buffer_mins")?;
                    if !v.is_finite() || v < 0.0 {
                        return Err(ProtoError::new(
                            "bad-number",
                            format!("buffer_mins `{tok}` must be finite and non-negative"),
                        ));
                    }
                    v
                }
                None => 0.0,
            };
            let shards = match args.get(5) {
                Some(tok) => Some(parse_u64(tok, "shards")?),
                None => None,
            };
            Command::Hello(SessionSpec {
                tenant: args[0].to_string(),
                preset: args[1].to_string(),
                seed: parse_u64(args[2], "seed")?,
                policy: args.get(3).unwrap_or(&"baseline1").to_string(),
                buffer_mins,
                shards,
            })
        }
        "ORDER" => {
            if args.len() != 5 {
                return Err(arity(
                    "ORDER",
                    args.len(),
                    "<pickup> <delivery> <qty> <created_s> <deadline_s>",
                ));
            }
            Command::Order {
                pickup: NodeId(parse_u32(args[0], "pickup")?),
                delivery: NodeId(parse_u32(args[1], "delivery")?),
                quantity: parse_f64(args[2], "qty")?,
                created: parse_time(args[3], "created_s")?,
                deadline: parse_time(args[4], "deadline_s")?,
            }
        }
        "CANCEL" => {
            if args.len() != 2 {
                return Err(arity("CANCEL", args.len(), "<order> <at_s>"));
            }
            Command::Cancel {
                order: OrderId(parse_u32(args[0], "order")?),
                at: parse_time(args[1], "at_s")?,
            }
        }
        "BREAKDOWN" => {
            if args.len() != 2 {
                return Err(arity("BREAKDOWN", args.len(), "<vehicle> <at_s>"));
            }
            Command::Breakdown {
                vehicle: VehicleId(parse_u32(args[0], "vehicle")?),
                at: parse_time(args[1], "at_s")?,
            }
        }
        "RECOVER" => {
            if args.len() != 2 {
                return Err(arity("RECOVER", args.len(), "<vehicle> <at_s>"));
            }
            Command::Recover {
                vehicle: VehicleId(parse_u32(args[0], "vehicle")?),
                at: parse_time(args[1], "at_s")?,
            }
        }
        "FLUSH" => {
            if args.len() != 1 {
                return Err(arity("FLUSH", args.len(), "<at_s>"));
            }
            Command::Flush {
                at: parse_time(args[0], "at_s")?,
            }
        }
        "DRAIN" => {
            if !args.is_empty() {
                return Err(arity("DRAIN", args.len(), "no arguments"));
            }
            Command::Drain
        }
        "RESUME" => {
            if !(2..=3).contains(&args.len()) {
                return Err(arity("RESUME", args.len(), "<tenant> <token> [ack]"));
            }
            Command::Resume {
                tenant: args[0].to_string(),
                token: args[1].to_string(),
                ack: match args.get(2) {
                    Some(tok) => parse_u64(tok, "ack")? as usize,
                    None => 0,
                },
            }
        }
        "STATS" => {
            if !args.is_empty() {
                return Err(arity("STATS", args.len(), "no arguments"));
            }
            Command::Stats
        }
        "PANIC" => {
            if !args.is_empty() {
                return Err(arity("PANIC", args.len(), "no arguments"));
            }
            Command::Panic
        }
        other => {
            return Err(ProtoError::new(
                "unknown-command",
                format!("`{other}` is not a protocol command"),
            ))
        }
    };
    Ok(Some(command))
}

/// Stable wire name of a [`DecisionReason`].
pub fn reason_name(reason: DecisionReason) -> &'static str {
    match reason {
        DecisionReason::Assigned => "assigned",
        DecisionReason::NoFeasibleVehicle => "no_feasible_vehicle",
        DecisionReason::PolicyRejected => "policy_rejected",
        DecisionReason::InfeasibleChoice => "infeasible_choice",
        DecisionReason::Cancelled => "cancelled",
        DecisionReason::VehicleLost => "vehicle_lost",
    }
}

/// Inverse of [`reason_name`].
pub fn parse_reason(tok: &str) -> Option<DecisionReason> {
    Some(match tok {
        "assigned" => DecisionReason::Assigned,
        "no_feasible_vehicle" => DecisionReason::NoFeasibleVehicle,
        "policy_rejected" => DecisionReason::PolicyRejected,
        "infeasible_choice" => DecisionReason::InfeasibleChoice,
        "cancelled" => DecisionReason::Cancelled,
        "vehicle_lost" => DecisionReason::VehicleLost,
        _ => return None,
    })
}

/// One decision as it travels on the wire — the exact tuple the parity
/// suite compares between a TCP episode and an in-process replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireDecision {
    /// The decided order (engine-assigned id).
    pub order: OrderId,
    /// The serving vehicle, `None` when rejected.
    pub vehicle: Option<VehicleId>,
    /// Why the decision turned out this way.
    pub reason: DecisionReason,
    /// Decision time, seconds (bit-exact).
    pub time_s: f64,
}

/// Formats a `DECISION` line (without its newline) through the
/// [`ServerMsg`] writer.
pub fn format_decision(d: &WireDecision) -> String {
    let mut frame = line(&ServerMsg::Decision(*d));
    frame.pop();
    frame
}

/// A point-in-time health snapshot of the server, as carried by a `STATS`
/// frame and returned by
/// [`ServerHandle::stats`](crate::ServerHandle::stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Sessions currently running (accepted, not yet finished).
    pub active: usize,
    /// Sessions accepted over the server's lifetime.
    pub total: usize,
    /// Session threads that died by panic (supervised: each wrote
    /// `ERR internal` + `BYE` and took nothing else down).
    pub panics: usize,
    /// Connections shed with `ERR overloaded` at the session cap.
    pub shed: usize,
    /// Sessions reaped by the idle deadline (`ERR idle-timeout`).
    pub reaped: usize,
    /// Episodes rebuilt from a journal via `RESUME`.
    pub resumed: usize,
}

/// The handshake's answer: `OK HELLO <tenant> preset=.. policy=.. seed=..
/// orders_base=.. vehicles=.. shards=.. token=..` or `OK RESUME <tenant>
/// preset=.. policy=.. seed=.. replayed=.. ack=.. token=..`. The tenant is
/// positional, so a tenant named like a field (`token=…`) is never read
/// as one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Greeting {
    /// The tenant the session serves.
    pub tenant: String,
    /// Instance preset name.
    pub preset: String,
    /// Dispatch policy name.
    pub policy: String,
    /// Episode seed.
    pub seed: u64,
    /// How the episode was opened, with the fields only that way carries.
    pub opened: Opened,
    /// The session token a later `RESUME` presents.
    pub token: String,
}

/// How a greeted episode was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opened {
    /// `OK HELLO`: a fresh episode.
    Hello {
        /// The id the first streamed order gets.
        orders_base: usize,
        /// Fleet size.
        vehicles: usize,
        /// Cell count of the resolved shard layout.
        shards: usize,
    },
    /// `OK RESUME`: an episode rebuilt from its journal.
    Resume {
        /// Journaled commands replayed into the fresh episode.
        replayed: usize,
        /// Episode frames suppressed as already delivered.
        ack: usize,
    },
}

/// The greeting's detail — its frame after `OK `.
impl fmt::Display for Greeting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.opened {
            Opened::Hello { .. } => "HELLO",
            Opened::Resume { .. } => "RESUME",
        };
        write!(
            f,
            "{kind} {} preset={} policy={} seed={}",
            self.tenant, self.preset, self.policy, self.seed
        )?;
        match self.opened {
            Opened::Hello {
                orders_base,
                vehicles,
                shards,
            } => write!(
                f,
                " orders_base={orders_base} vehicles={vehicles} shards={shards}"
            )?,
            Opened::Resume { replayed, ack } => write!(f, " replayed={replayed} ack={ack}")?,
        }
        write!(f, " token={}", self.token)
    }
}

/// One parsed server → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// `OK HELLO|RESUME <tenant> <key=value...>` — the handshake's
    /// greeting.
    Ok(Greeting),
    /// `ERR <code> <detail...>` — a structured protocol error.
    Err {
        /// Stable error class.
        code: String,
        /// Human-oriented detail.
        detail: String,
    },
    /// `DECISION <order> <vehicle|-> <reason> <time_s>` — one committed
    /// dispatch decision.
    Decision(WireDecision),
    /// `EPOCH <index> <now_s> <orders>` — a decision epoch opened.
    Epoch {
        /// Zero-based epoch index.
        index: usize,
        /// Epoch decision time, seconds.
        now_s: f64,
        /// Orders flushed at this epoch.
        num_orders: usize,
    },
    /// `DISRUPT <tail...>` — an applied disruption, raw tail preserved.
    Disrupt(String),
    /// `METRICS ...` — the episode's final aggregates.
    Metrics(EpisodeMetrics),
    /// `STATS ...` — a server-health snapshot (reply to a `STATS` ask).
    Stats(StatsSnapshot),
    /// `BYE` — the episode is drained; the server closes after this.
    Bye,
}

/// The message's wire frame — the one writer of server frames.
impl fmt::Display for ServerMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerMsg::Ok(greeting) => write!(f, "OK {greeting}"),
            ServerMsg::Err { code, detail } => write!(f, "ERR {code} {detail}"),
            ServerMsg::Decision(d) => {
                write!(f, "DECISION {} ", d.order.index())?;
                match d.vehicle {
                    Some(v) => write!(f, "{}", v.index())?,
                    None => f.write_str("-")?,
                }
                write!(f, " {} {}", reason_name(d.reason), d.time_s)
            }
            ServerMsg::Epoch {
                index,
                now_s,
                num_orders,
            } => write!(f, "EPOCH {index} {now_s} {num_orders}"),
            ServerMsg::Disrupt(tail) => write!(f, "DISRUPT {tail}"),
            ServerMsg::Metrics(m) => write!(
                f,
                "METRICS served={} rejected={} nuv={} ttl={} total_cost={} avg_response_s={} \
                 rej_no_feasible={} rej_policy={} rej_infeasible={} rej_cancelled={} \
                 rej_vehicle_lost={}",
                m.served,
                m.rejected,
                m.nuv,
                m.ttl,
                m.total_cost,
                m.avg_response_secs,
                m.rejections.no_feasible_vehicle,
                m.rejections.policy_rejected,
                m.rejections.infeasible_choice,
                m.rejections.cancelled,
                m.rejections.vehicle_lost,
            ),
            ServerMsg::Stats(s) => write!(
                f,
                "STATS active={} total={} panics={} shed={} reaped={} resumed={}",
                s.active, s.total, s.panics, s.shed, s.reaped, s.resumed,
            ),
            ServerMsg::Bye => f.write_str("BYE"),
        }
    }
}

/// The `ERR` frame a protocol error travels as.
impl From<ProtoError> for ServerMsg {
    fn from(err: ProtoError) -> ServerMsg {
        ServerMsg::Err {
            code: err.code.to_string(),
            detail: err.detail,
        }
    }
}

/// The `DISRUPT` frame of an applied disruption: `<time_s> cancel <order>
/// <outcome> [vehicle]`, `<time_s> breakdown <vehicle> stranded=.. lost=..`
/// or `<time_s> recover <vehicle>`.
impl From<&DisruptionRecord> for ServerMsg {
    fn from(d: &DisruptionRecord) -> ServerMsg {
        let t = d.time.seconds();
        ServerMsg::Disrupt(match &d.kind {
            DisruptionKind::OrderCancelled {
                order,
                outcome,
                vehicle,
            } => {
                let outcome = match outcome {
                    CancelOutcome::BeforeDispatch => "before_dispatch",
                    CancelOutcome::AfterAssignment => "after_assignment",
                    CancelOutcome::TooLate => "too_late",
                };
                match vehicle {
                    Some(v) => format!("{t} cancel {} {outcome} {}", order.index(), v.index()),
                    None => format!("{t} cancel {} {outcome}", order.index()),
                }
            }
            DisruptionKind::VehicleBreakdown {
                vehicle,
                stranded,
                lost,
            } => format!(
                "{t} breakdown {} stranded={} lost={}",
                vehicle.index(),
                stranded.len(),
                lost.len()
            ),
            DisruptionKind::VehicleRecovered { vehicle } => {
                format!("{t} recover {}", vehicle.index())
            }
        })
    }
}

/// A frame's `key=value` fields, looked up by key; `code` is the error
/// class a missing or malformed field draws.
struct Fields<'a> {
    code: &'static str,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    fn new(code: &'static str, args: &[&'a str]) -> Fields<'a> {
        let pairs = args.iter().filter_map(|tok| tok.split_once('=')).collect();
        Fields { code, pairs }
    }

    fn get(&self, key: &str) -> Result<&'a str, ProtoError> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| ProtoError::new(self.code, format!("missing field `{key}`")))
    }

    fn count(&self, key: &str) -> Result<usize, ProtoError> {
        let tok = self.get(key)?;
        tok.parse::<usize>()
            .map_err(|_| ProtoError::new(self.code, format!("field `{key}` = `{tok}`")))
    }

    fn float(&self, key: &str) -> Result<f64, ProtoError> {
        parse_f64(self.get(key)?, key)
    }
}

/// Splits a greeting's detail (`HELLO|RESUME <tenant> <key=value...>`)
/// into its kind, its positional tenant and its named fields.
fn greeting_parts<'a>(args: &[&'a str]) -> Result<(&'a str, &'a str, Fields<'a>), ProtoError> {
    match args {
        [kind @ ("HELLO" | "RESUME"), tenant, fields @ ..] => {
            Ok((kind, tenant, Fields::new("bad-greeting", fields)))
        }
        _ => Err(ProtoError::new(
            "bad-greeting",
            "OK must be followed by HELLO or RESUME and a tenant",
        )),
    }
}

/// Extracts the session token — the `RESUME` credential — from an
/// `OK HELLO` / `OK RESUME` detail (the greeting after `OK `, as
/// [`ServeClient::hello`](crate::ServeClient::hello) returns it): its
/// `token=` field, read after the positional tenant, so a tenant named
/// `token=…` is never mistaken for it.
pub fn token_from_ok_detail(detail: &str) -> Option<&str> {
    let args: Vec<&str> = detail.split_whitespace().collect();
    greeting_parts(&args).ok()?.2.get("token").ok()
}

fn parse_greeting(args: &[&str]) -> Result<Greeting, ProtoError> {
    let (kind, tenant, fields) = greeting_parts(args)?;
    let opened = if kind == "HELLO" {
        Opened::Hello {
            orders_base: fields.count("orders_base")?,
            vehicles: fields.count("vehicles")?,
            shards: fields.count("shards")?,
        }
    } else {
        Opened::Resume {
            replayed: fields.count("replayed")?,
            ack: fields.count("ack")?,
        }
    };
    Ok(Greeting {
        tenant: tenant.to_string(),
        preset: fields.get("preset")?.to_string(),
        policy: fields.get("policy")?.to_string(),
        seed: parse_u64(fields.get("seed")?, "seed")?,
        opened,
        token: fields.get("token")?.to_string(),
    })
}

fn parse_stats(args: &[&str]) -> Result<StatsSnapshot, ProtoError> {
    let fields = Fields::new("bad-stats", args);
    Ok(StatsSnapshot {
        active: fields.count("active")?,
        total: fields.count("total")?,
        panics: fields.count("panics")?,
        shed: fields.count("shed")?,
        reaped: fields.count("reaped")?,
        resumed: fields.count("resumed")?,
    })
}

fn parse_metrics(args: &[&str]) -> Result<EpisodeMetrics, ProtoError> {
    let fields = Fields::new("bad-metrics", args);
    Ok(EpisodeMetrics {
        served: fields.count("served")?,
        rejected: fields.count("rejected")?,
        nuv: fields.count("nuv")?,
        ttl: fields.float("ttl")?,
        total_cost: fields.float("total_cost")?,
        avg_response_secs: fields.float("avg_response_s")?,
        rejections: RejectionCounts {
            no_feasible_vehicle: fields.count("rej_no_feasible")?,
            policy_rejected: fields.count("rej_policy")?,
            infeasible_choice: fields.count("rej_infeasible")?,
            cancelled: fields.count("rej_cancelled")?,
            vehicle_lost: fields.count("rej_vehicle_lost")?,
        },
    })
}

/// Parses one server frame (client side). Blank lines yield `Ok(None)`.
pub fn parse_server_msg(line: &str) -> Result<Option<ServerMsg>, ProtoError> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    let Some((&kind, args)) = toks.split_first() else {
        return Ok(None);
    };
    let msg = match kind {
        "OK" => ServerMsg::Ok(parse_greeting(args)?),
        "ERR" => {
            let (code, detail) = args
                .split_first()
                .map(|(c, d)| (c.to_string(), d.join(" ")))
                .unwrap_or_default();
            ServerMsg::Err { code, detail }
        }
        "DECISION" => {
            if args.len() != 4 {
                return Err(arity("DECISION", args.len(), "4 fields"));
            }
            let vehicle = match args[1] {
                "-" => None,
                tok => Some(VehicleId(parse_u32(tok, "vehicle")?)),
            };
            let reason = parse_reason(args[2]).ok_or_else(|| {
                ProtoError::new("bad-reason", format!("unknown reason `{}`", args[2]))
            })?;
            ServerMsg::Decision(WireDecision {
                order: OrderId(parse_u32(args[0], "order")?),
                vehicle,
                reason,
                time_s: parse_f64(args[3], "time_s")?,
            })
        }
        "EPOCH" => {
            if args.len() != 3 {
                return Err(arity("EPOCH", args.len(), "3 fields"));
            }
            ServerMsg::Epoch {
                index: parse_u32(args[0], "index")? as usize,
                now_s: parse_f64(args[1], "now_s")?,
                num_orders: parse_u32(args[2], "orders")? as usize,
            }
        }
        "DISRUPT" => ServerMsg::Disrupt(args.join(" ")),
        "METRICS" => ServerMsg::Metrics(parse_metrics(args)?),
        "STATS" => ServerMsg::Stats(parse_stats(args)?),
        "BYE" => ServerMsg::Bye,
        other => {
            return Err(ProtoError::new(
                "unknown-command",
                format!("`{other}` is not a server frame"),
            ))
        }
    };
    Ok(Some(msg))
}

#[cfg(test)]
mod tests;
