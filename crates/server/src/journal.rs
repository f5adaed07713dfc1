//! Per-tenant write-ahead command journals — the persistence half of the
//! crash-recovery story.
//!
//! An episode is a pure function of its `HELLO` configuration and the
//! ordered command stream (the determinism contract proven by the
//! socket-parity suite). That makes recovery cheap: journal the accepted
//! commands, and an interrupted episode can be rebuilt **bit-identically**
//! by replaying them through a fresh [`Simulator::serve`] — which is
//! exactly what the `RESUME` frame does.
//!
//! A [`JournalStore`] keeps one [`Journal`] per tenant. Journals live in
//! memory; with a backing directory configured
//! ([`ServerConfig::journal_dir`]) each one is also mirrored to a flat
//! text file so episodes survive a server *process* restart, not just a
//! dropped connection. The file format is deliberately the wire format:
//!
//! ```text
//! TOKEN <session token>
//! HELLO <tenant> <preset> <seed> <policy> <buffer_mins> [shards]
//! ORDER <pickup> <delivery> <qty> <created_s> <deadline_s>
//! FLUSH <at_s>
//! ...
//! ```
//!
//! so a journal file is literally a replayable session transcript (times
//! use shortest round-trip `f64` printing and parse back bit-identically).
//!
//! **Durability, precisely.** [`Journal::append`] writes each line to the
//! operating system and no further: the `File::flush` after the write is a
//! no-op (a [`std::fs::File`] has no user-space buffer to flush), and
//! nothing calls `sync_data` or `sync_all`. An appended command is in the
//! kernel's page cache when `append` returns, so it survives the server
//! process dying, but not a kernel crash or a power loss that comes before
//! the kernel writes the page back.
//!
//! Lifecycle: `HELLO` opens a journal (issuing its token), every accepted
//! command appends, an explicit `DRAIN` finishes it (removed — the episode
//! completed and nothing is left to recover), while EOF, a connection
//! reset, an idle reap, or a session panic all *retain* it for `RESUME`.
//! At most one live session may hold a journal at a time: a `RESUME` (or
//! duplicate `HELLO`) racing an still-attached session is refused with
//! `ERR session-active`.
//!
//! [`Simulator::serve`]: dpdp_sim::Simulator::serve
//! [`ServerConfig::journal_dir`]: crate::ServerConfig::journal_dir

use crate::proto::{parse_command, Command, ProtoError};
use dpdp_net::{Order, OrderId};
use dpdp_sim::StreamCommand;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The replayable `HELLO` configuration of a session — everything besides
/// the command stream that determines the episode.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Tenant label; the journal registry key.
    pub tenant: String,
    /// Instance preset name.
    pub preset: String,
    /// Episode seed.
    pub seed: u64,
    /// Dispatch policy name.
    pub policy: String,
    /// Epoch buffering period in minutes (`0` = immediate).
    pub buffer_mins: f64,
    /// Optional flat shard-count override from the `HELLO` frame.
    pub shards: Option<u64>,
}

impl SessionSpec {
    /// The journal header line — a replayable `HELLO` frame.
    fn header_line(&self) -> String {
        let mut line = format!(
            "HELLO {} {} {} {} {}",
            self.tenant, self.preset, self.seed, self.policy, self.buffer_mins
        );
        if let Some(n) = self.shards {
            line.push(' ');
            line.push_str(&n.to_string());
        }
        line
    }
}

/// Serializes a journaled command back into its wire frame — journal
/// files are session transcripts.
pub fn command_line(cmd: &StreamCommand) -> String {
    match cmd {
        StreamCommand::Order(o) => format!(
            "ORDER {} {} {} {} {}",
            o.pickup.0,
            o.delivery.0,
            o.quantity,
            o.created.seconds(),
            o.deadline.seconds()
        ),
        StreamCommand::Cancel { order, at } => {
            format!("CANCEL {} {}", order.index(), at.seconds())
        }
        StreamCommand::Breakdown { vehicle, at } => {
            format!("BREAKDOWN {} {}", vehicle.index(), at.seconds())
        }
        StreamCommand::Recover { vehicle, at } => {
            format!("RECOVER {} {}", vehicle.index(), at.seconds())
        }
        StreamCommand::Flush { at } => format!("FLUSH {}", at.seconds()),
    }
}

/// Rebuilds a stream command from a parsed journal line. The engine
/// reassigns order ids on arrival, so the placeholder id is irrelevant.
fn command_from_wire(cmd: Command) -> Option<StreamCommand> {
    Some(match cmd {
        Command::Order {
            pickup,
            delivery,
            quantity,
            created,
            deadline,
        } => StreamCommand::Order(
            Order::new(OrderId(0), pickup, delivery, quantity, created, deadline).ok()?,
        ),
        Command::Cancel { order, at } => StreamCommand::Cancel { order, at },
        Command::Breakdown { vehicle, at } => StreamCommand::Breakdown { vehicle, at },
        Command::Recover { vehicle, at } => StreamCommand::Recover { vehicle, at },
        Command::Flush { at } => StreamCommand::Flush { at },
        _ => return None,
    })
}

/// One tenant's write-ahead journal: the `HELLO` spec plus every command
/// the episode accepted so far, in acceptance order.
#[derive(Debug)]
pub struct Journal {
    /// The session configuration a resume must rebuild.
    pub spec: SessionSpec,
    /// The capability token `RESUME` must present.
    pub token: String,
    /// Accepted commands, in order.
    pub commands: Vec<StreamCommand>,
    /// Whether a live session currently holds this journal.
    pub active: bool,
    /// The backing file, when the store is directory-backed.
    file: Option<File>,
}

impl Journal {
    /// Appends one accepted command, and mirrors it to the backing file
    /// when one exists — written to the operating system, not synced to
    /// the disk (see the module docs). File write failures degrade to
    /// memory-only journaling — serving beats persistence.
    pub fn append(&mut self, cmd: StreamCommand) {
        if let Some(file) = &mut self.file {
            let mut line = command_line(&cmd);
            line.push('\n');
            if file
                .write_all(line.as_bytes())
                .and_then(|_| file.flush())
                .is_err()
            {
                self.file = None;
            }
        }
        self.commands.push(cmd);
    }
}

/// A mutex lock that shrugs off poisoning: a panicked session must never
/// brick its tenant's journal (the whole point is surviving panics).
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The per-server journal registry: one [`Journal`] per tenant, optionally
/// mirrored to `dir` (see the module docs for lifecycle and file format).
#[derive(Debug)]
pub struct JournalStore {
    dir: Option<PathBuf>,
    counter: AtomicU64,
    inner: Mutex<HashMap<String, Arc<Mutex<Journal>>>>,
}

/// FNV-1a — enough entropy to make tokens non-guessable by accident (this
/// is crash recovery, not authentication; the crate docs say so).
fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Journal file name for a tenant: a sanitized prefix for readability plus
/// a hash of the raw name so distinct tenants never collide.
fn file_name(tenant: &str) -> String {
    let sanitized: String = tenant
        .chars()
        .take(48)
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!(
        "{sanitized}-{:08x}.journal",
        fnv1a(tenant.as_bytes(), 0) as u32
    )
}

impl JournalStore {
    /// Builds a store; `dir`, when given, is created eagerly so the first
    /// session doesn't pay for (or trip over) it.
    pub fn new(dir: Option<PathBuf>) -> JournalStore {
        if let Some(dir) = &dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!(
                    "dpdp-server: cannot create journal dir {}: {e}; journaling stays in-memory",
                    dir.display()
                );
            }
        }
        JournalStore {
            dir,
            counter: AtomicU64::new(0),
            inner: Mutex::new(HashMap::new()),
        }
    }

    fn path_for(&self, tenant: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(file_name(tenant)))
    }

    fn next_token(&self, tenant: &str) -> String {
        let n = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        format!("{n:x}-{:08x}", fnv1a(tenant.as_bytes(), n) as u32)
    }

    /// Opens a fresh journal for a `HELLO`, issuing its token. A previous
    /// journal for the tenant is replaced — unless a live session still
    /// holds it (`ERR session-active`).
    pub fn open(&self, spec: SessionSpec) -> Result<Arc<Mutex<Journal>>, ProtoError> {
        let mut map = lock_unpoisoned(&self.inner);
        if let Some(existing) = map.get(&spec.tenant) {
            if lock_unpoisoned(existing).active {
                return Err(ProtoError::new(
                    "session-active",
                    format!("tenant `{}` already has a live session", spec.tenant),
                ));
            }
        }
        let token = self.next_token(&spec.tenant);
        let file = self.path_for(&spec.tenant).and_then(|path| {
            let header = format!("TOKEN {token}\n{}\n", spec.header_line());
            File::create(&path)
                .and_then(|mut f| {
                    f.write_all(header.as_bytes())
                        .and_then(|_| f.flush())
                        .map(|_| f)
                })
                .map_err(|e| {
                    eprintln!(
                        "dpdp-server: cannot write journal {}: {e}; tenant `{}` stays in-memory",
                        path.display(),
                        spec.tenant
                    );
                })
                .ok()
        });
        let tenant = spec.tenant.clone();
        let journal = Arc::new(Mutex::new(Journal {
            spec,
            token,
            commands: Vec::new(),
            active: true,
            file,
        }));
        map.insert(tenant, Arc::clone(&journal));
        Ok(journal)
    }

    /// Parses a journal file back into a [`Journal`] (inactive, file
    /// reopened for appending).
    fn load(&self, tenant: &str) -> Option<Journal> {
        let path = self.path_for(tenant)?;
        let reader = BufReader::new(File::open(&path).ok()?);
        let mut lines = reader.lines();
        let token = lines
            .next()?
            .ok()?
            .strip_prefix("TOKEN ")
            .map(str::to_string)?;
        let header = lines.next()?.ok()?;
        let spec = match parse_command(&header).ok()?? {
            Command::Hello {
                tenant,
                preset,
                seed,
                policy,
                buffer_mins,
                shards,
            } => SessionSpec {
                tenant,
                preset,
                seed,
                policy,
                buffer_mins,
                shards,
            },
            _ => return None,
        };
        if spec.tenant != tenant {
            return None;
        }
        let mut commands = Vec::new();
        for line in lines {
            let cmd = parse_command(&line.ok()?).ok()??;
            commands.push(command_from_wire(cmd)?);
        }
        let file = OpenOptions::new().append(true).open(&path).ok();
        Some(Journal {
            spec,
            token,
            commands,
            active: false,
            file,
        })
    }

    /// Claims a journal for a `RESUME`: looks the tenant up in memory,
    /// falling back to the backing directory (server-restart recovery),
    /// validates the token, and marks the journal active.
    pub fn resume(&self, tenant: &str, token: &str) -> Result<Arc<Mutex<Journal>>, ProtoError> {
        let mut map = lock_unpoisoned(&self.inner);
        let journal = match map.get(tenant) {
            Some(journal) => Arc::clone(journal),
            None => {
                let loaded = self.load(tenant).ok_or_else(|| {
                    ProtoError::new(
                        "unknown-session",
                        format!("no journal for tenant `{tenant}`"),
                    )
                })?;
                let loaded = Arc::new(Mutex::new(loaded));
                map.insert(tenant.to_string(), Arc::clone(&loaded));
                loaded
            }
        };
        let mut guard = lock_unpoisoned(&journal);
        if guard.token != token {
            return Err(ProtoError::new(
                "bad-token",
                format!("token does not match tenant `{tenant}`'s session"),
            ));
        }
        if guard.active {
            return Err(ProtoError::new(
                "session-active",
                format!("tenant `{tenant}` still has a live session"),
            ));
        }
        guard.active = true;
        drop(guard);
        Ok(journal)
    }

    /// Finishes a journal after a clean `DRAIN`: the episode completed,
    /// nothing is left to recover, so the entry (and backing file) go.
    pub fn finish(&self, tenant: &str) {
        lock_unpoisoned(&self.inner).remove(tenant);
        if let Some(path) = self.path_for(tenant) {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// RAII release of a journal's `active` claim. Held by the session for
/// the episode's lifetime; the `Drop` runs during unwinding too, so even
/// a panicked session frees its tenant for `RESUME`.
pub(crate) struct ActiveClaim(pub(crate) Arc<Mutex<Journal>>);

impl Drop for ActiveClaim {
    fn drop(&mut self) {
        lock_unpoisoned(&self.0).active = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdp_net::{NodeId, TimePoint};

    fn spec(tenant: &str) -> SessionSpec {
        SessionSpec {
            tenant: tenant.into(),
            preset: "ring12".into(),
            seed: 7,
            policy: "baseline1".into(),
            buffer_mins: 10.0,
            shards: Some(3),
        }
    }

    fn order(created_s: f64) -> StreamCommand {
        StreamCommand::Order(
            Order::new(
                OrderId(0),
                NodeId(1),
                NodeId(5),
                2.5,
                TimePoint::from_seconds(created_s),
                TimePoint::from_seconds(created_s + 7_200.0),
            )
            .expect("valid order"),
        )
    }

    #[test]
    fn open_resume_and_finish_enforce_the_claim_protocol() {
        let store = JournalStore::new(None);
        let journal = store.open(spec("acme")).expect("open");
        let token = lock_unpoisoned(&journal).token.clone();

        // Active: neither a duplicate HELLO nor a RESUME may claim it.
        assert_eq!(store.open(spec("acme")).unwrap_err().code, "session-active");
        assert_eq!(
            store.resume("acme", &token).unwrap_err().code,
            "session-active"
        );

        // Released (connection died): RESUME with the right token wins...
        drop(ActiveClaim(Arc::clone(&journal)));
        assert_eq!(store.resume("acme", "wrong").unwrap_err().code, "bad-token");
        let resumed = store.resume("acme", &token).expect("resume");
        assert!(lock_unpoisoned(&resumed).active);

        // ...and a DRAIN finishes it for good.
        drop(ActiveClaim(resumed));
        store.finish("acme");
        assert_eq!(
            store.resume("acme", &token).unwrap_err().code,
            "unknown-session"
        );
        assert_eq!(
            store.resume("ghost", "t").unwrap_err().code,
            "unknown-session"
        );
    }

    #[test]
    fn file_backed_journals_survive_a_store_restart_bit_identically() {
        let dir = std::env::temp_dir().join(format!("dpdp-journal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = JournalStore::new(Some(dir.clone()));
        let journal = store.open(spec("acme")).expect("open");
        let token;
        {
            let mut guard = lock_unpoisoned(&journal);
            token = guard.token.clone();
            // An awkward decimal exercises round-trip-exact serialization.
            guard.append(order(8.17 * 3600.0));
            guard.append(StreamCommand::Flush {
                at: TimePoint::from_seconds(30_000.5),
            });
            guard.append(StreamCommand::Breakdown {
                vehicle: dpdp_net::VehicleId(2),
                at: TimePoint::from_seconds(31_000.25),
            });
        }
        drop(ActiveClaim(journal));

        // A brand-new store (fresh process) must reload the journal from
        // disk: same spec, same token, bit-identical commands.
        let reborn = JournalStore::new(Some(dir.clone()));
        let resumed = reborn.resume("acme", &token).expect("file-backed resume");
        let guard = lock_unpoisoned(&resumed);
        assert_eq!(guard.spec, spec("acme"));
        assert_eq!(guard.commands.len(), 3);
        match (&guard.commands[0], &order(8.17 * 3600.0)) {
            (StreamCommand::Order(a), StreamCommand::Order(b)) => {
                assert_eq!(a.created.seconds().to_bits(), b.created.seconds().to_bits());
                assert_eq!(
                    a.deadline.seconds().to_bits(),
                    b.deadline.seconds().to_bits()
                );
                assert_eq!(a.quantity, b.quantity);
                assert_eq!((a.pickup, a.delivery), (b.pickup, b.delivery));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            guard.commands[1],
            StreamCommand::Flush {
                at: TimePoint::from_seconds(30_000.5)
            }
        );
        drop(guard);
        drop(ActiveClaim(resumed));
        reborn.finish("acme");
        assert!(
            !dir.join(file_name("acme")).exists(),
            "finish deletes the file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_tenants_never_share_a_journal_file() {
        assert_ne!(file_name("a/b"), file_name("a_b"));
        assert_ne!(file_name("t1"), file_name("t2"));
    }
}
