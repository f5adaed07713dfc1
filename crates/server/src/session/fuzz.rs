//! Seeded byte fuzz of one session: random bytes and mutated valid
//! transcripts, read at seeded chunk boundaries and ended by EOF, must
//! never crash, hang or garble a session. Every line the session sends
//! must be exactly what the one writer writes for its parse, and every
//! corpus line that parses must rewrite to a line that parses back to the
//! same command. The generator is the in-tree xorshift; a failure names
//! the seed that replays it.

use super::tests::{context, replay};
use super::*;
use crate::pipe::{duplex, Rng};
use crate::proto::{parse_server_msg, ServerMsg};
use crate::server::supervise_session;
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

/// Streams per run.
const STREAMS: u64 = 1024;
/// How long one stream may take before the test calls it a hang.
const HANG_GUARD: Duration = Duration::from_secs(60);

/// Numbers that are valid tokens of the wrong size or kind.
const HOSTILE_NUMBERS: [&str; 9] = [
    "1e308",
    "-1e308",
    "NaN",
    "inf",
    "-inf",
    "18446744073709551616",
    "18446744073709551615",
    "-0",
    "4294967296",
];

/// A valid session transcript: a `HELLO`, a seeded mix of every client
/// command (some of them invalid for the instance), and usually a `DRAIN`.
fn transcript(rng: &mut Rng) -> Vec<String> {
    let mut lines = vec![format!(
        "HELLO fz{} {} {} {} {}{}",
        rng.below(4),
        PRESET_NAMES[rng.below(PRESET_NAMES.len())],
        rng.below(1000),
        // baseline3 is exact: too slow for a debug-build fuzz.
        ["baseline1", "baseline2", "first_feasible"][rng.below(3)],
        [0, 0, 10][rng.below(3)],
        if rng.below(4) == 0 {
            format!(" {}", 1 + rng.below(4))
        } else {
            String::new()
        },
    )];
    let mut t = 8.0 * 3600.0;
    let mut orders = 0;
    for _ in 0..4 + rng.below(24) {
        t += (30 * (1 + rng.below(20))) as f64;
        lines.push(match rng.below(10) {
            0..=4 => {
                orders += 1;
                let pickup = 1 + rng.below(12);
                let delivery = 1 + rng.below(12);
                let slack = [600.0, 3600.0, 4.0 * 3600.0][rng.below(3)];
                format!(
                    "ORDER {pickup} {delivery} {} {t} {}",
                    1 + rng.below(5),
                    t + slack
                )
            }
            5 | 6 => format!("FLUSH {}", t + 1.0),
            7 => format!("CANCEL {} {t}", rng.below(orders + 2)),
            8 => format!(
                "{} {} {t}",
                ["BREAKDOWN", "RECOVER"][rng.below(2)],
                rng.below(10)
            ),
            _ => ["STATS", "PANIC", "HELLO again ring12 1"][rng.below(3)].to_string(),
        });
    }
    if rng.below(2) == 0 {
        lines.push("DRAIN".to_string());
    }
    lines
}

/// One seeded damage to a line: a token dropped, swapped or duplicated,
/// a hostile number, a flipped byte, a NUL, invalid UTF-8, a CR, or the
/// line grown past the frame cap.
fn mutate(line: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut tokens: Vec<Vec<u8>> = line.split(|&b| b == b' ').map(<[u8]>::to_vec).collect();
    let n = tokens.len();
    match rng.below(9) {
        0 => {
            tokens.remove(rng.below(n));
        }
        1 => tokens.swap(rng.below(n), rng.below(n)),
        2 => {
            let i = rng.below(n);
            tokens.insert(i, tokens[i].clone());
        }
        3 => tokens[rng.below(n)] = HOSTILE_NUMBERS[rng.below(9)].as_bytes().to_vec(),
        4..=7 => {
            let mut bytes = tokens.join(&b' ');
            let at = rng.below(bytes.len() + 1);
            match rng.below(4) {
                0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
                1 => bytes.insert(at, 0),
                2 => bytes.splice(at..at, [0xff, 0xc3]).for_each(drop),
                _ => bytes.insert(at, b'\r'),
            }
            return bytes;
        }
        _ => tokens.push(vec![b'9'; MAX_LINE_BYTES + 1]),
    }
    tokens.join(&b' ')
}

/// One fuzz stream: random bytes (a quarter of the time) or a mutated
/// transcript, whose last line sometimes lacks its newline.
fn stream(rng: &mut Rng) -> Vec<u8> {
    if rng.below(4) == 0 {
        let len = rng.below(2048);
        return (0..len)
            .map(|_| match rng.below(16) {
                0 => b'\n',
                1 => b' ',
                _ => rng.next() as u8,
            })
            .collect();
    }
    let mut lines: Vec<Vec<u8>> = transcript(rng)
        .into_iter()
        .map(String::into_bytes)
        .collect();
    for _ in 0..1 + rng.below(4) {
        let i = rng.below(lines.len());
        match rng.below(4) {
            0 => {
                lines.remove(i);
                if lines.is_empty() {
                    break;
                }
            }
            1 => lines.insert(i, lines[i].clone()),
            _ => lines[i] = mutate(&lines[i], rng),
        }
    }
    let mut bytes = lines.join(&b'\n');
    if rng.below(3) != 0 {
        bytes.push(b'\n');
    }
    bytes
}

/// Rewrites every line of `bytes` that parses as a command through
/// [`Command`]'s one writer and checks the rewrite parses back to the same
/// command, every float bit-equal (`Debug` prints each in shortest
/// round-trip form, the sign of zero included). Returns how many lines it
/// checked.
fn check_rewrites(seed: u64, bytes: &[u8]) -> usize {
    let mut checked = 0;
    for raw in bytes.split(|&b| b == b'\n') {
        let line = String::from_utf8_lossy(raw);
        let Ok(Some(cmd)) = parse_command(&line) else {
            continue;
        };
        let rewritten = cmd.to_string();
        match parse_command(&rewritten) {
            Ok(Some(back)) => assert_eq!(
                format!("{back:?}"),
                format!("{cmd:?}"),
                "seed {seed:#x}: `{line}` rewrote to `{rewritten}`"
            ),
            other => panic!("seed {seed:#x}: `{line}` rewrote to `{rewritten}`: {other:?}"),
        }
        checked += 1;
    }
    checked
}

/// How a fuzzed session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ending {
    /// No handshake succeeded.
    Unopened,
    /// The episode drained on `DRAIN`; its journal is finished.
    Drained,
    /// The stream ended without `DRAIN`; the kept journal replayed.
    Kept,
}

/// Feeds `bytes` to one session and checks every property the fuzz
/// asserts; panics naming `seed` on the first one that fails.
fn check_stream(seed: u64, bytes: Vec<u8>, pool: &Arc<ThreadPool>) -> Ending {
    let (mut client, server) = duplex(seed, 64);
    client.send_bytes(&bytes);
    client.hang_up();
    let ctx = context(Arc::clone(pool), false);
    let (done, finished) = std::sync::mpsc::channel();
    let session = std::thread::spawn(move || {
        let panicked = supervise_session(server.reader, server.writer, &ctx);
        let _ = done.send(());
        (panicked, ctx)
    });
    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(HANG_GUARD) {
        panic!("seed {seed:#x}: the session did not return");
    }
    let (panicked, ctx) = session
        .join()
        .unwrap_or_else(|_| panic!("seed {seed:#x}: the session thread panicked"));
    assert!(!panicked, "seed {seed:#x}: the session panicked");
    assert_eq!(ctx.stats.snapshot().panics, 0, "seed {seed:#x}");

    let mut msgs = Vec::new();
    while let Some(line) = client.next_line() {
        match parse_server_msg(&line) {
            Ok(Some(ServerMsg::Err { code, .. })) if code == "internal" => {
                panic!("seed {seed:#x}: `{line}`")
            }
            // Every line the session sent is its frame's one rewrite.
            Ok(Some(msg)) if msg.to_string() == line => msgs.push(msg),
            other => panic!("seed {seed:#x}: unparseable or unwritten frame `{line}`: {other:?}"),
        }
    }
    let opened = msgs.iter().find_map(|m| match m {
        ServerMsg::Ok(greeting) => Some(greeting),
        _ => None,
    });
    let Some(greeting) = opened else {
        assert!(
            !msgs
                .iter()
                .any(|m| matches!(m, ServerMsg::Metrics(_) | ServerMsg::Bye)),
            "seed {seed:#x}: an unopened session ended an episode"
        );
        return Ending::Unopened;
    };
    let [.., ServerMsg::Metrics(metrics), ServerMsg::Bye] = msgs.as_slice() else {
        panic!("seed {seed:#x}: an opened session must end METRICS + BYE");
    };
    // A fresh store never resumes: the greeting is an `OK HELLO`.
    match ctx.journals.resume(&greeting.tenant, &greeting.token) {
        // No DRAIN: the kept journal replays to the same episode.
        Ok(journal) => {
            let journal = journal.lock().unwrap_or_else(|p| p.into_inner());
            assert_eq!(
                *metrics,
                replay(&journal.spec, &journal.commands),
                "seed {seed:#x}: the kept journal replays to other METRICS"
            );
            Ending::Kept
        }
        Err(err) => {
            assert_eq!(err.code, "unknown-session", "seed {seed:#x}");
            Ending::Drained
        }
    }
}

#[test]
fn arbitrary_bytes_never_crash_hang_or_garble_a_session() {
    let pool = Arc::new(ThreadPool::new(1));
    let mut endings = Vec::new();
    let mut rewritten = 0;
    for case in 0..STREAMS {
        let seed = 0xf022_0000 + case;
        let bytes = stream(&mut Rng::new(seed));
        rewritten += check_rewrites(seed, &bytes);
        endings.push(check_stream(seed, bytes, &pool));
    }
    assert!(
        rewritten > STREAMS as usize,
        "only {rewritten} corpus lines parsed"
    );
    for ending in [Ending::Unopened, Ending::Drained, Ending::Kept] {
        assert!(endings.contains(&ending), "no stream ended {ending:?}");
    }
}
