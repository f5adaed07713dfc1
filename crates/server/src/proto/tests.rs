//! The grammar's tests: hand-picked frames, then the seeded property that
//! every command and every server frame parses back from its one writer
//! to exactly what was written.

use super::*;
use crate::pipe::Rng;

#[test]
fn hello_defaults_and_overrides() {
    let spec = |policy: &str, buffer_mins, shards| SessionSpec {
        tenant: "t".into(),
        preset: "ring12".into(),
        seed: 42,
        policy: policy.into(),
        buffer_mins,
        shards,
    };
    assert_eq!(
        parse_command("HELLO t ring12 42").unwrap().unwrap(),
        Command::Hello(spec("baseline1", 0.0, None))
    );
    assert_eq!(
        parse_command("HELLO t ring12 42 baseline3 10")
            .unwrap()
            .unwrap(),
        Command::Hello(spec("baseline3", 10.0, None))
    );
    assert_eq!(
        parse_command("HELLO t ring12 42 baseline3 10 4")
            .unwrap()
            .unwrap(),
        Command::Hello(spec("baseline3", 10.0, Some(4)))
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
    assert_eq!(parse_server_msg("OK").unwrap_err().code, "bad-greeting");
    assert_eq!(
        parse_server_msg("OK WELCOME t token=a").unwrap_err().code,
        "bad-greeting"
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
    assert_eq!(line, "DECISION 17 3 assigned 29412.000000000004");
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
    let msg = ServerMsg::Metrics(m);
    assert_eq!(parse_server_msg(&msg.to_string()).unwrap(), Some(msg));
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
    let msg = ServerMsg::Stats(StatsSnapshot {
        active: 2,
        total: 9,
        panics: 1,
        shed: 3,
        reaped: 4,
        resumed: 5,
    });
    assert_eq!(parse_server_msg(&msg.to_string()).unwrap(), Some(msg));
}

#[test]
fn every_reason_round_trips() {
    for reason in REASONS {
        assert_eq!(parse_reason(reason_name(reason)), Some(reason));
    }
    assert_eq!(parse_reason("nope"), None);
}

const REASONS: [DecisionReason; 6] = [
    DecisionReason::Assigned,
    DecisionReason::NoFeasibleVehicle,
    DecisionReason::PolicyRejected,
    DecisionReason::InfeasibleChoice,
    DecisionReason::Cancelled,
    DecisionReason::VehicleLost,
];

/// Floats the grammar must carry bit for bit: both zeros, the smallest
/// subnormal and a larger one, the smallest normal and the largest
/// magnitudes.
const EDGE_FLOATS: [f64; 7] = [
    0.0,
    -0.0,
    5e-324,
    2.2e-310,
    f64::MIN_POSITIVE,
    1e308,
    f64::MAX,
];

/// A finite float: an edge value a third of the time, else random bits.
fn float(rng: &mut Rng) -> f64 {
    if rng.below(3) == 0 {
        return EDGE_FLOATS[rng.below(EDGE_FLOATS.len())];
    }
    loop {
        let x = f64::from_bits(rng.next());
        if x.is_finite() {
            return x;
        }
    }
}

/// A finite float the parser takes as a time: non-negative, `-0` kept.
fn non_negative(rng: &mut Rng) -> f64 {
    let x = float(rng);
    if x < 0.0 {
        -x
    } else {
        x
    }
}

fn time(rng: &mut Rng) -> TimePoint {
    TimePoint::from_seconds(non_negative(rng))
}

/// An id: 0, the largest, or random.
fn id(rng: &mut Rng) -> u32 {
    [0, u32::MAX, rng.next() as u32][rng.below(3)]
}

/// A seed: 0, the largest, or random.
fn big(rng: &mut Rng) -> u64 {
    [0, u64::MAX, rng.next()][rng.below(3)]
}

/// A whitespace-free token, now and then one shaped like a greeting field.
fn word(rng: &mut Rng) -> String {
    if rng.below(4) == 0 {
        return ["token=evil", "preset=x", "=", "ack=1"][rng.below(4)].to_string();
    }
    (0..1 + rng.below(12))
        .map(|_| char::from(b'!' + rng.below(94) as u8))
        .collect()
}

/// Zero to three words, single-spaced: an `ERR` detail or a `DISRUPT` tail.
fn words(rng: &mut Rng) -> String {
    let n = rng.below(4);
    (0..n).map(|_| word(rng)).collect::<Vec<_>>().join(" ")
}

/// The generator arm of each command variant; a new variant does not
/// compile here until the generator covers it.
fn command_arm(cmd: &Command) -> usize {
    match cmd {
        Command::Hello(_) => 0,
        Command::Order { .. } => 1,
        Command::Cancel { .. } => 2,
        Command::Breakdown { .. } => 3,
        Command::Recover { .. } => 4,
        Command::Flush { .. } => 5,
        Command::Drain => 6,
        Command::Resume { .. } => 7,
        Command::Stats => 8,
        Command::Panic => 9,
    }
}

const COMMAND_ARMS: usize = 10;

fn command(rng: &mut Rng, arm: usize) -> Command {
    match arm {
        0 => Command::Hello(SessionSpec {
            tenant: word(rng),
            preset: word(rng),
            seed: big(rng),
            policy: word(rng),
            buffer_mins: non_negative(rng),
            shards: (rng.below(2) == 0).then(|| big(rng)),
        }),
        1 => Command::Order {
            pickup: NodeId(id(rng)),
            delivery: NodeId(id(rng)),
            quantity: float(rng),
            created: time(rng),
            deadline: time(rng),
        },
        2 => Command::Cancel {
            order: OrderId(id(rng)),
            at: time(rng),
        },
        3 => Command::Breakdown {
            vehicle: VehicleId(id(rng)),
            at: time(rng),
        },
        4 => Command::Recover {
            vehicle: VehicleId(id(rng)),
            at: time(rng),
        },
        5 => Command::Flush { at: time(rng) },
        6 => Command::Drain,
        7 => Command::Resume {
            tenant: word(rng),
            token: word(rng),
            ack: count(rng),
        },
        8 => Command::Stats,
        _ => Command::Panic,
    }
}

/// The generator arm of each server frame; both greetings have one.
fn msg_arm(msg: &ServerMsg) -> usize {
    match msg {
        ServerMsg::Ok(Greeting {
            opened: Opened::Hello { .. },
            ..
        }) => 0,
        ServerMsg::Ok(Greeting {
            opened: Opened::Resume { .. },
            ..
        }) => 1,
        ServerMsg::Err { .. } => 2,
        ServerMsg::Decision(_) => 3,
        ServerMsg::Epoch { .. } => 4,
        ServerMsg::Disrupt(_) => 5,
        ServerMsg::Metrics(_) => 6,
        ServerMsg::Stats(_) => 7,
        ServerMsg::Bye => 8,
    }
}

const MSG_ARMS: usize = 9;

/// A count: 0, the largest, or random.
fn count(rng: &mut Rng) -> usize {
    big(rng) as usize
}

fn server_msg(rng: &mut Rng, arm: usize) -> ServerMsg {
    match arm {
        0 | 1 => ServerMsg::Ok(Greeting {
            tenant: word(rng),
            preset: word(rng),
            policy: word(rng),
            seed: big(rng),
            opened: if arm == 0 {
                Opened::Hello {
                    orders_base: count(rng),
                    vehicles: count(rng),
                    shards: count(rng),
                }
            } else {
                Opened::Resume {
                    replayed: count(rng),
                    ack: count(rng),
                }
            },
            token: word(rng),
        }),
        2 => ServerMsg::Err {
            code: word(rng),
            detail: words(rng),
        },
        3 => ServerMsg::Decision(WireDecision {
            order: OrderId(id(rng)),
            vehicle: (rng.below(2) == 0).then(|| VehicleId(id(rng))),
            reason: REASONS[rng.below(REASONS.len())],
            time_s: float(rng),
        }),
        4 => ServerMsg::Epoch {
            index: id(rng) as usize,
            now_s: float(rng),
            num_orders: id(rng) as usize,
        },
        5 => ServerMsg::Disrupt(words(rng)),
        6 => ServerMsg::Metrics(EpisodeMetrics {
            nuv: count(rng),
            ttl: float(rng),
            total_cost: float(rng),
            served: count(rng),
            rejected: count(rng),
            rejections: RejectionCounts {
                no_feasible_vehicle: count(rng),
                policy_rejected: count(rng),
                infeasible_choice: count(rng),
                cancelled: count(rng),
                vehicle_lost: count(rng),
            },
            avg_response_secs: float(rng),
        }),
        7 => ServerMsg::Stats(StatsSnapshot {
            active: count(rng),
            total: count(rng),
            panics: count(rng),
            shed: count(rng),
            reaped: count(rng),
            resumed: count(rng),
        }),
        _ => ServerMsg::Bye,
    }
}

/// `Debug` prints every `f64` in its shortest round-trip form, the sign
/// of zero included, so equal `Debug` text is equality of every float's
/// bits — stricter than `PartialEq`, for which `-0 == 0`.
fn assert_bit_equal<T: fmt::Debug>(back: &T, sent: &T, line: &str) {
    assert_eq!(format!("{back:?}"), format!("{sent:?}"), "`{line}`");
}

/// `parse(format(x)) == x` for every command and every server frame, both
/// greetings included, with every `f64` field bit-equal: zeros of both
/// signs, subnormals, `1e308`, the largest ids, counts and seeds, and
/// tokens shaped like greeting fields. The values are ones the parser
/// accepts: whitespace-free tokens, finite floats, non-negative times,
/// `u32` epoch fields. `DISRUPT` keeps its raw tail and round-trips as
/// that string.
#[test]
fn every_frame_parses_back_to_what_its_writer_wrote() {
    let mut rng = Rng::new(0x0a11_f2a3);
    for round in 0..COMMAND_ARMS * MSG_ARMS * 40 {
        let cmd = command(&mut rng, round % COMMAND_ARMS);
        assert_eq!(command_arm(&cmd), round % COMMAND_ARMS);
        let line = cmd.to_string();
        match parse_command(&line) {
            Ok(Some(back)) => assert_bit_equal(&back, &cmd, &line),
            other => panic!("`{line}` parsed to {other:?}"),
        }

        let msg = server_msg(&mut rng, round % MSG_ARMS);
        assert_eq!(msg_arm(&msg), round % MSG_ARMS);
        let line = msg.to_string();
        match parse_server_msg(&line) {
            Ok(Some(back)) => assert_bit_equal(&back, &msg, &line),
            other => panic!("`{line}` parsed to {other:?}"),
        }
        if let ServerMsg::Ok(greeting) = &msg {
            assert_eq!(
                token_from_ok_detail(&greeting.to_string()),
                Some(greeting.token.as_str()),
                "`{line}`"
            );
        }
    }
}
