//! An in-memory duplex pipe that stands in for a socket in the crate's
//! tests: a session runs over it exactly as over TCP, with no port, no
//! timer and no sleep.
//!
//! Reads block on a condvar until bytes, a hang-up or an injected fault
//! arrive, and hand out the buffered bytes in seeded chunks of
//! `1..=max_chunk`, so frame boundaries never line up with reads by
//! accident. [`Pipe::fail`] injects a read error: `TimedOut` (the idle
//! deadline) fires once, any other kind (`ConnectionReset`, a killed peer)
//! on every later read. A fault fires only once the buffered bytes are
//! read, as on a socket that went quiet.

use crate::proto::{parse_server_msg, ServerMsg};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// xorshift64* — every seeded schedule in the tests replays from its seed.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`0` for `n == 0`).
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// Uniform in `1..=max`.
    pub(crate) fn chunk(&mut self, max: usize) -> usize {
        1 + self.below(max)
    }
}

struct State {
    bytes: VecDeque<u8>,
    /// The writing end hung up: reads past the buffer see EOF.
    closed: bool,
    /// The reading end is gone: writes fail with `BrokenPipe`.
    reader_gone: bool,
    fault: Option<io::ErrorKind>,
    rng: Rng,
    max_chunk: usize,
}

/// One direction of the duplex pipe.
struct Pipe {
    state: Mutex<State>,
    ready: Condvar,
}

impl Pipe {
    fn new(seed: u64, max_chunk: usize) -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(State {
                bytes: VecDeque::new(),
                closed: false,
                reader_gone: false,
                fault: None,
                rng: Rng::new(seed),
                max_chunk: max_chunk.max(1),
            }),
            ready: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Makes the reader's next read past the buffered bytes fail with
    /// `kind`.
    fn fail(&self, kind: io::ErrorKind) {
        self.lock().fault = Some(kind);
        self.ready.notify_all();
    }
}

/// The reading end of a [`Pipe`].
pub(crate) struct PipeReader(Arc<Pipe>);

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut state = self.0.lock();
        loop {
            if !state.bytes.is_empty() {
                let max_chunk = state.max_chunk;
                let n = state
                    .rng
                    .chunk(max_chunk)
                    .min(out.len())
                    .min(state.bytes.len());
                for (slot, byte) in out.iter_mut().zip(state.bytes.drain(..n)) {
                    *slot = byte;
                }
                return Ok(n);
            }
            if let Some(kind) = state.fault {
                if kind == io::ErrorKind::TimedOut {
                    state.fault = None;
                }
                return Err(kind.into());
            }
            if state.closed {
                return Ok(0);
            }
            state = self.0.ready.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        self.0.lock().reader_gone = true;
    }
}

/// The writing end of a [`Pipe`]; dropping it is the hang-up.
pub(crate) struct PipeWriter(Arc<Pipe>);

impl Write for PipeWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let mut state = self.0.lock();
        if state.reader_gone {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        state.bytes.extend(bytes);
        drop(state);
        self.0.ready.notify_all();
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.ready.notify_all();
    }
}

/// The server's end of a duplex pipe: what a session reads and writes.
pub(crate) struct ServerEnd {
    pub reader: PipeReader,
    pub writer: PipeWriter,
}

/// The client's end of a duplex pipe.
pub(crate) struct Client {
    to_server: Option<PipeWriter>,
    from_server: Option<BufReader<PipeReader>>,
    inbound: Arc<Pipe>,
}

/// A fresh duplex pipe whose server side reads in seeded chunks of
/// `1..=max_chunk` bytes.
pub(crate) fn duplex(seed: u64, max_chunk: usize) -> (Client, ServerEnd) {
    let inbound = Pipe::new(seed, max_chunk);
    let outbound = Pipe::new(seed ^ 0x5555_5555_5555_5555, 64);
    let client = Client {
        to_server: Some(PipeWriter(Arc::clone(&inbound))),
        from_server: Some(BufReader::new(PipeReader(Arc::clone(&outbound)))),
        inbound: Arc::clone(&inbound),
    };
    let server = ServerEnd {
        reader: PipeReader(inbound),
        writer: PipeWriter(outbound),
    };
    (client, server)
}

impl Client {
    /// Writes raw bytes toward the session.
    pub(crate) fn send_bytes(&mut self, bytes: &[u8]) {
        self.to_server
            .as_mut()
            .expect("the client has not hung up")
            .write_all(bytes)
            .expect("the session's reader is alive");
    }

    /// Writes one frame (the newline appended).
    pub(crate) fn send(&mut self, line: &str) {
        self.send_bytes(format!("{line}\n").as_bytes());
    }

    /// Writes one frame in seeded pieces of `1..=max` bytes.
    pub(crate) fn drip(&mut self, line: &str, rng: &mut Rng, max: usize) {
        let frame = format!("{line}\n");
        let mut rest = frame.as_bytes();
        while !rest.is_empty() {
            let (piece, tail) = rest.split_at(rng.chunk(max).min(rest.len()));
            self.send_bytes(piece);
            rest = tail;
        }
    }

    /// Hangs up the write direction: the session reads EOF.
    pub(crate) fn hang_up(&mut self) {
        self.to_server = None;
    }

    /// A killed peer: the session's next read fails with
    /// `ConnectionReset`, and its writes fail from now on.
    pub(crate) fn kill(&mut self) {
        self.inbound.fail(io::ErrorKind::ConnectionReset);
        self.from_server = None;
    }

    /// The idle deadline passes: the session's next read times out.
    pub(crate) fn go_idle(&self) {
        self.inbound.fail(io::ErrorKind::TimedOut);
    }

    /// The next raw line from the session (newline stripped), `None` at
    /// EOF.
    pub(crate) fn next_line(&mut self) -> Option<String> {
        let mut line = String::new();
        let reader = self.from_server.as_mut().expect("the client is alive");
        match reader
            .read_line(&mut line)
            .expect("the pipe never fails reads")
        {
            0 => None,
            _ => Some(line.trim_end_matches('\n').to_string()),
        }
    }

    /// The next frame from the session, `None` at EOF. Panics on a frame
    /// [`parse_server_msg`] rejects or a blank line.
    pub(crate) fn next_msg(&mut self) -> Option<ServerMsg> {
        let line = self.next_line()?;
        match parse_server_msg(&line) {
            Ok(Some(msg)) => Some(msg),
            other => panic!("unparseable server frame `{line}`: {other:?}"),
        }
    }
}
