//! Wire protocol: line grammar, parsing, and formatting.
//!
//! Both directions speak newline-delimited frames of whitespace-separated
//! ASCII tokens. Times travel as raw **seconds** (`f64`, printed with
//! Rust's shortest round-trip formatting), so a value parsed back from the
//! wire is bit-identical to the one the server computed — the property the
//! socket-parity suite leans on.
//!
//! Client → server frames are [`Command`]s; server → client frames are
//! [`ServerMsg`]s. See the crate docs for the full grammar.

use dpdp_net::{NodeId, OrderId, TimePoint, VehicleId};
use dpdp_sim::{
    CancelOutcome, DecisionReason, DisruptionKind, DisruptionRecord, EpisodeMetrics, EpochInfo,
    RejectionCounts,
};
use std::fmt;

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

    /// The `ERR ...` line this error travels as.
    pub fn to_line(&self) -> String {
        format!("ERR {} {}", self.code, self.detail)
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

impl std::error::Error for ProtoError {}

/// One parsed client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `HELLO <tenant> <preset> <seed> [policy] [buffer_mins] [shards]` —
    /// opens the session's episode.
    Hello {
        /// Tenant label, echoed back; purely informational.
        tenant: String,
        /// Instance preset name (see [`crate::preset::PRESET_NAMES`]).
        preset: String,
        /// Episode seed.
        seed: u64,
        /// Dispatch policy name (see [`crate::preset::POLICY_NAMES`]).
        policy: String,
        /// Epoch buffering period in minutes; `0` = immediate dispatch.
        buffer_mins: f64,
        /// Optional flat shard-count override; `None` keeps the preset's
        /// registered [`ShardConfig`](dpdp_sim::ShardConfig). Sharding
        /// never changes decisions, only how scoring is partitioned.
        shards: Option<u64>,
    },
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
            Command::Hello {
                tenant: args[0].to_string(),
                preset: args[1].to_string(),
                seed: parse_u64(args[2], "seed")?,
                policy: args.get(3).unwrap_or(&"baseline1").to_string(),
                buffer_mins,
                shards,
            }
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

/// Formats a `DECISION` line.
pub fn format_decision(d: &WireDecision) -> String {
    let vehicle = match d.vehicle {
        Some(v) => v.index().to_string(),
        None => "-".to_string(),
    };
    format!(
        "DECISION {} {} {} {}",
        d.order.index(),
        vehicle,
        reason_name(d.reason),
        d.time_s
    )
}

/// Formats an `EPOCH` line.
pub fn format_epoch(e: &EpochInfo) -> String {
    format!("EPOCH {} {} {}", e.index, e.now.seconds(), e.num_orders)
}

/// Formats a `DISRUPT` line.
pub fn format_disruption(d: &DisruptionRecord) -> String {
    let t = d.time.seconds();
    match &d.kind {
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
                Some(v) => format!(
                    "DISRUPT {t} cancel {} {outcome} {}",
                    order.index(),
                    v.index()
                ),
                None => format!("DISRUPT {t} cancel {} {outcome}", order.index()),
            }
        }
        DisruptionKind::VehicleBreakdown {
            vehicle,
            stranded,
            lost,
        } => format!(
            "DISRUPT {t} breakdown {} stranded={} lost={}",
            vehicle.index(),
            stranded.len(),
            lost.len()
        ),
        DisruptionKind::VehicleRecovered { vehicle } => {
            format!("DISRUPT {t} recover {}", vehicle.index())
        }
    }
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

/// Formats a `STATS` frame.
pub fn format_stats(s: &StatsSnapshot) -> String {
    format!(
        "STATS active={} total={} panics={} shed={} reaped={} resumed={}",
        s.active, s.total, s.panics, s.shed, s.reaped, s.resumed,
    )
}

fn parse_stats(args: &[&str]) -> Result<StatsSnapshot, ProtoError> {
    let fields: Vec<(&str, &str)> = args.iter().filter_map(|tok| tok.split_once('=')).collect();
    let count = |key: &str| -> Result<usize, ProtoError> {
        let tok = metrics_field(&fields, key)?;
        tok.parse::<usize>()
            .map_err(|_| ProtoError::new("bad-stats", format!("field `{key}` = `{tok}`")))
    };
    Ok(StatsSnapshot {
        active: count("active")?,
        total: count("total")?,
        panics: count("panics")?,
        shed: count("shed")?,
        reaped: count("reaped")?,
        resumed: count("resumed")?,
    })
}

/// Formats the final `METRICS` line from an episode's aggregates.
pub fn format_metrics(m: &EpisodeMetrics) -> String {
    format!(
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
    )
}

/// One parsed server → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// `OK <detail...>` — a positive acknowledgement (handshake).
    Ok(String),
    /// `ERR <code> <detail...>` — a structured protocol error.
    Err {
        /// Stable error class.
        code: String,
        /// Human-oriented detail.
        detail: String,
    },
    /// `DECISION ...` — one committed dispatch decision.
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

fn metrics_field<'a>(fields: &'a [(&'a str, &'a str)], key: &str) -> Result<&'a str, ProtoError> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| ProtoError::new("bad-metrics", format!("missing field `{key}`")))
}

fn parse_metrics(args: &[&str]) -> Result<EpisodeMetrics, ProtoError> {
    let fields: Vec<(&str, &str)> = args.iter().filter_map(|tok| tok.split_once('=')).collect();
    let count = |key: &str| -> Result<usize, ProtoError> {
        let tok = metrics_field(&fields, key)?;
        tok.parse::<usize>()
            .map_err(|_| ProtoError::new("bad-metrics", format!("field `{key}` = `{tok}`")))
    };
    let float = |key: &str| -> Result<f64, ProtoError> {
        let tok = metrics_field(&fields, key)?;
        parse_f64(tok, key)
    };
    Ok(EpisodeMetrics {
        served: count("served")?,
        rejected: count("rejected")?,
        nuv: count("nuv")?,
        ttl: float("ttl")?,
        total_cost: float("total_cost")?,
        avg_response_secs: float("avg_response_s")?,
        rejections: RejectionCounts {
            no_feasible_vehicle: count("rej_no_feasible")?,
            policy_rejected: count("rej_policy")?,
            infeasible_choice: count("rej_infeasible")?,
            cancelled: count("rej_cancelled")?,
            vehicle_lost: count("rej_vehicle_lost")?,
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
        "OK" => ServerMsg::Ok(args.join(" ")),
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
mod tests {
    use super::*;

    #[test]
    fn hello_defaults_and_overrides() {
        let cmd = parse_command("HELLO acme line4 7").unwrap().unwrap();
        assert_eq!(
            cmd,
            Command::Hello {
                tenant: "acme".into(),
                preset: "line4".into(),
                seed: 7,
                policy: "baseline1".into(),
                buffer_mins: 0.0,
                shards: None,
            }
        );
        let cmd = parse_command("HELLO t ring12 42 baseline3 10")
            .unwrap()
            .unwrap();
        assert_eq!(
            cmd,
            Command::Hello {
                tenant: "t".into(),
                preset: "ring12".into(),
                seed: 42,
                policy: "baseline3".into(),
                buffer_mins: 10.0,
                shards: None,
            }
        );
        let cmd = parse_command("HELLO t ring12 42 baseline3 10 4")
            .unwrap()
            .unwrap();
        assert_eq!(
            cmd,
            Command::Hello {
                tenant: "t".into(),
                preset: "ring12".into(),
                seed: 42,
                policy: "baseline3".into(),
                buffer_mins: 10.0,
                shards: Some(4),
            }
        );
        assert_eq!(
            parse_command("HELLO t ring12 42 baseline3 10 four")
                .unwrap_err()
                .code,
            "bad-number"
        );
    }

    #[test]
    fn malformed_frames_produce_stable_codes() {
        assert_eq!(parse_command("").unwrap(), None);
        assert_eq!(parse_command("   ").unwrap(), None);
        assert_eq!(parse_command("NOPE 1").unwrap_err().code, "unknown-command");
        assert_eq!(parse_command("ORDER 1 2 3").unwrap_err().code, "bad-arity");
        assert_eq!(
            parse_command("ORDER 1 2 3 x 5").unwrap_err().code,
            "bad-number"
        );
        assert_eq!(parse_command("FLUSH -4").unwrap_err().code, "bad-number");
        assert_eq!(parse_command("FLUSH NaN").unwrap_err().code, "bad-number");
        assert_eq!(parse_command("DRAIN now").unwrap_err().code, "bad-arity");
        assert_eq!(
            parse_command("HELLO t p 9 pol inf").unwrap_err().code,
            "bad-number"
        );
    }

    #[test]
    fn order_frame_round_trips_seconds_exactly() {
        // An awkward decimal: the shortest round-trip printing must come
        // back bit-identical through the wire.
        let created = TimePoint::from_hours(8.17).seconds();
        let line = format!("ORDER 1 2 3.5 {created} {}", created + 21_600.0);
        match parse_command(&line).unwrap().unwrap() {
            Command::Order {
                created: c,
                deadline: d,
                quantity,
                ..
            } => {
                assert_eq!(c.seconds().to_bits(), created.to_bits());
                assert_eq!(d.seconds().to_bits(), (created + 21_600.0).to_bits());
                assert_eq!(quantity, 3.5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn decision_line_round_trips() {
        let d = WireDecision {
            order: OrderId(17),
            vehicle: Some(VehicleId(3)),
            reason: DecisionReason::Assigned,
            time_s: 29_412.000000000004,
        };
        let line = format_decision(&d);
        match parse_server_msg(&line).unwrap().unwrap() {
            ServerMsg::Decision(back) => {
                assert_eq!(back, d);
                assert_eq!(back.time_s.to_bits(), d.time_s.to_bits());
            }
            other => panic!("unexpected {other:?}"),
        }
        let rej = WireDecision {
            order: OrderId(2),
            vehicle: None,
            reason: DecisionReason::NoFeasibleVehicle,
            time_s: 0.1,
        };
        assert_eq!(
            parse_server_msg(&format_decision(&rej)).unwrap().unwrap(),
            ServerMsg::Decision(rej)
        );
    }

    #[test]
    fn metrics_line_round_trips() {
        let m = EpisodeMetrics {
            nuv: 3,
            ttl: 123.45600000000002,
            total_cost: 1746.912,
            served: 9,
            rejected: 15,
            // Distinct per reason, so swapping two `rej_*` keys fails.
            rejections: RejectionCounts {
                no_feasible_vehicle: 1,
                policy_rejected: 2,
                infeasible_choice: 3,
                cancelled: 4,
                vehicle_lost: 5,
            },
            avg_response_secs: 300.5,
        };
        match parse_server_msg(&format_metrics(&m)).unwrap().unwrap() {
            ServerMsg::Metrics(back) => assert_eq!(back, m),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn resume_stats_and_panic_frames_parse() {
        assert_eq!(
            parse_command("RESUME acme tok123").unwrap().unwrap(),
            Command::Resume {
                tenant: "acme".into(),
                token: "tok123".into(),
                ack: 0,
            }
        );
        assert_eq!(
            parse_command("RESUME acme tok123 17").unwrap().unwrap(),
            Command::Resume {
                tenant: "acme".into(),
                token: "tok123".into(),
                ack: 17,
            }
        );
        assert_eq!(
            parse_command("RESUME acme tok123 lots").unwrap_err().code,
            "bad-number"
        );
        assert_eq!(parse_command("RESUME acme").unwrap_err().code, "bad-arity");
        assert_eq!(parse_command("STATS").unwrap().unwrap(), Command::Stats);
        assert_eq!(parse_command("STATS now").unwrap_err().code, "bad-arity");
        assert_eq!(parse_command("PANIC").unwrap().unwrap(), Command::Panic);
        assert_eq!(parse_command("PANIC hard").unwrap_err().code, "bad-arity");
    }

    #[test]
    fn stats_line_round_trips() {
        let s = StatsSnapshot {
            active: 2,
            total: 9,
            panics: 1,
            shed: 3,
            reaped: 4,
            resumed: 5,
        };
        match parse_server_msg(&format_stats(&s)).unwrap().unwrap() {
            ServerMsg::Stats(back) => assert_eq!(back, s),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn every_reason_round_trips() {
        for reason in [
            DecisionReason::Assigned,
            DecisionReason::NoFeasibleVehicle,
            DecisionReason::PolicyRejected,
            DecisionReason::InfeasibleChoice,
            DecisionReason::Cancelled,
            DecisionReason::VehicleLost,
        ] {
            assert_eq!(parse_reason(reason_name(reason)), Some(reason));
        }
        assert_eq!(parse_reason("nope"), None);
    }
}
