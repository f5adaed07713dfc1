//! A small dependency-free scoped thread pool for deterministic data
//! parallelism.
//!
//! The build environment is offline (no rayon), so this crate provides the
//! minimal slice of a work-stealing pool the DPDP hot loops need:
//!
//! * [`ThreadPool::scope`] — spawn closures that **borrow** the caller's
//!   stack (crossbeam-style scoped threads); the scope joins every task
//!   before returning and re-raises the first task panic on the caller.
//! * [`ThreadPool::par_map`] — evaluate `f(0..n)` across the pool's
//!   threads, each result written into its pre-indexed slot. Because slot
//!   `i` always holds exactly `f(i)`, the output is **bit-identical to the
//!   serial loop regardless of thread count or interleaving** — the
//!   property the simulator's batch/serial parity tests are built on.
//!
//! Tasks are pushed to a shared injector queue and *claimed* (stolen) by
//! whichever worker goes idle first, so load balances dynamically at chunk
//! granularity; scheduling order never influences results, only wall time.
//! A pool of one thread ([`ThreadPool::serial`]) spawns no workers and runs
//! everything inline on the caller, giving exact legacy behaviour.
//!
//! The joining thread participates in the work: while a scope has pending
//! tasks it drains the injector itself, so scopes may be entered reentrantly
//! from inside a task (nested [`ThreadPool::par_map`] cannot deadlock —
//! every joiner makes progress on whatever work remains).
//!
//! A fan-out is not free: a `par_map` queues its chunks under one lock and
//! wakes at most one idle worker per chunk (never more than `threads - 1`),
//! and a woken worker can take tens of microseconds to start on a busy
//! host. So the simulator does not hand every epoch to the pool: an epoch
//! below `dpdp_sim::FAN_OUT_MIN_CELLS` cells (orders × active vehicles), a
//! one-order serving epoch among them, runs its stages on a serial pool,
//! inline on the caller, at any width. Only wide epochs pay for the
//! wake-up, and only they gain from it.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A closure queued for execution, paired with the scope it reports to.
struct Task {
    /// The erased-lifetime task body. Safety: the owning [`Scope`] joins
    /// (waits for `Join::pending` to reach zero) before any borrow the
    /// closure captured can expire, so running it is sound even though the
    /// box is typed `'static`.
    body: Box<dyn FnOnce() + Send + 'static>,
    join: Arc<Join>,
}

impl Task {
    /// Runs the body under `catch_unwind` and reports completion (and any
    /// panic payload) to the scope.
    fn run(self) {
        let result = catch_unwind(AssertUnwindSafe(self.body));
        self.join.complete(result.err());
    }
}

/// Per-scope join state: how many spawned tasks are still outstanding, and
/// the first panic payload captured from any of them.
struct Join {
    state: Mutex<JoinState>,
    done: Condvar,
}

struct JoinState {
    pending: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Join {
    fn new() -> Arc<Join> {
        Arc::new(Join {
            state: Mutex::new(JoinState {
                pending: 0,
                panic: None,
            }),
            done: Condvar::new(),
        })
    }

    fn add_tasks(&self, n: usize) {
        self.state.lock().expect("join lock poisoned").pending += n;
    }

    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut state = self.state.lock().expect("join lock poisoned");
        state.pending -= 1;
        if state.panic.is_none() {
            state.panic = panic;
        }
        if state.pending == 0 {
            self.done.notify_all();
        }
    }
}

/// The shared injector queue workers block on.
struct Injector {
    queue: Mutex<InjectorState>,
    work: Condvar,
}

struct InjectorState {
    tasks: VecDeque<Task>,
    /// Workers blocked in [`Injector::pop_blocking`]: what a push may wake.
    idle: usize,
    /// Pushes so far (see [`ThreadPool::fan_outs`]).
    pushes: usize,
    shutdown: bool,
}

impl Injector {
    /// Queues `tasks` under one lock, then wakes one idle worker per task,
    /// and no more workers than are idle. A wake is a syscall even when
    /// nobody waits, so a fan-out pays one lock and at most `threads - 1`
    /// wakes, not one of each per task; a worker that is busy finds the
    /// queue when it next looks.
    fn push(&self, tasks: impl ExactSizeIterator<Item = Task>) {
        let mut state = self.queue.lock().expect("injector lock poisoned");
        let wake = tasks.len().min(state.idle);
        state.pushes += 1;
        state.tasks.extend(tasks);
        drop(state);
        // Each worker counted idle is already waiting (the condvar released
        // the lock it was counted under), so no wake-up can be lost.
        for _ in 0..wake {
            self.work.notify_one();
        }
    }

    fn try_pop(&self) -> Option<Task> {
        self.queue
            .lock()
            .expect("injector lock poisoned")
            .tasks
            .pop_front()
    }

    /// Worker loop body: blocks until a task is available or shutdown.
    fn pop_blocking(&self) -> Option<Task> {
        let mut state = self.queue.lock().expect("injector lock poisoned");
        loop {
            if let Some(task) = state.tasks.pop_front() {
                return Some(task);
            }
            if state.shutdown {
                return None;
            }
            state.idle += 1;
            state = self.work.wait(state).expect("injector lock poisoned");
            state.idle -= 1;
        }
    }
}

/// A scoped thread pool of a fixed width.
///
/// `threads` counts the caller too: a pool of width `n` spawns `n - 1`
/// workers and the thread that enters [`ThreadPool::scope`] or
/// [`ThreadPool::par_map`] contributes the remaining lane. Width 1 spawns
/// nothing and runs every closure inline — exact serial semantics with zero
/// synchronisation.
pub struct ThreadPool {
    injector: Arc<Injector>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool that uses `threads` threads in total (including the
    /// calling thread at scope-join time).
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> ThreadPool {
        assert!(threads >= 1, "a thread pool needs at least one thread");
        let injector = Arc::new(Injector {
            queue: Mutex::new(InjectorState {
                tasks: VecDeque::new(),
                idle: 0,
                pushes: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let workers = (0..threads - 1)
            .map(|i| {
                let injector = Arc::clone(&injector);
                std::thread::Builder::new()
                    .name(format!("dpdp-pool-{i}"))
                    .spawn(move || {
                        while let Some(task) = injector.pop_blocking() {
                            task.run();
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            injector,
            workers,
            threads,
        }
    }

    /// A width-1 pool: no workers, everything runs inline on the caller.
    pub fn serial() -> ThreadPool {
        ThreadPool::new(1)
    }

    /// Total thread width (callers + workers).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this pool actually runs anything concurrently.
    #[inline]
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// How many times work was queued on this pool: once per
    /// [`Scope::spawn`], and once per [`ThreadPool::par_map`] that splits
    /// its work (more than one item on a pool wider than one). A caller
    /// that gates its fan-outs reads it to tell which work reached the
    /// workers; it never influences results.
    pub fn fan_outs(&self) -> usize {
        self.injector
            .queue
            .lock()
            .expect("injector lock poisoned")
            .pushes
    }

    /// Runs `f` with a [`Scope`] on which borrowing tasks can be spawned,
    /// then joins: every spawned task is guaranteed to have finished before
    /// `scope` returns. The calling thread helps execute queued tasks while
    /// it waits.
    ///
    /// If a task panics, the scope still joins every other task and then
    /// re-raises the first panic on the caller. A panic in `f` itself also
    /// joins before propagating (so no spawned borrow can dangle).
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let scope = Scope {
            pool: self,
            join: Join::new(),
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.join_scope(&scope.join);
        let task_panic = scope
            .join
            .state
            .lock()
            .expect("join lock poisoned")
            .panic
            .take();
        match result {
            // A panic in `f` wins: its tasks were still joined above.
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                if let Some(payload) = task_panic {
                    resume_unwind(payload);
                }
                value
            }
        }
    }

    /// Evaluates `f(i)` for every `i in 0..n` and returns the results in
    /// index order. Work is split into chunks claimed dynamically by the
    /// pool's threads; each result lands in its pre-indexed slot, so the
    /// output equals the serial `(0..n).map(f).collect()` **exactly**, for
    /// any thread count.
    pub fn par_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let mut out: Vec<Option<T>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        // Oversubscribe chunks 4x so late-finishing threads can steal the
        // remainder; chunk boundaries depend only on (n, width), never on
        // timing.
        let chunk = n.div_ceil((self.threads * 4).min(n)).max(1);
        let f = &f;
        self.scope(|s| {
            s.spawn_all(out.chunks_mut(chunk).enumerate().map(|(ci, slots)| {
                let base = ci * chunk;
                move || {
                    for (off, slot) in slots.iter_mut().enumerate() {
                        *slot = Some(f(base + off));
                    }
                }
            }));
        });
        out.into_iter()
            .map(|slot| slot.expect("scope join fills every slot"))
            .collect()
    }

    /// Joins a scope: drains the injector (helping with whatever work is
    /// queued, this scope's or another's) until the scope's pending count
    /// hits zero.
    fn join_scope(&self, join: &Arc<Join>) {
        loop {
            if let Some(task) = self.injector.try_pop() {
                task.run();
                continue;
            }
            let state = join.state.lock().expect("join lock poisoned");
            if state.pending == 0 {
                return;
            }
            // Tasks of this scope are running on other threads (anything
            // queued was drained above and the scope can no longer grow);
            // wait for their completion signals.
            let (state, timeout) = join
                .done
                .wait_timeout(state, std::time::Duration::from_millis(1))
                .expect("join lock poisoned");
            if state.pending == 0 {
                return;
            }
            drop(state);
            // On timeout, re-check the injector: a nested scope may have
            // queued new work we can help with.
            let _ = timeout;
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut state = self.injector.queue.lock().expect("injector lock poisoned");
            state.shutdown = true;
        }
        self.injector.work.notify_all();
        for worker in self.workers.drain(..) {
            // A worker that panicked outside `Task::run` is already
            // accounted for; don't double-panic in drop.
            let _ = worker.join();
        }
    }
}

/// Handle for spawning borrowing tasks inside [`ThreadPool::scope`].
///
/// The `'env` lifetime is invariant (the classic scoped-thread trick): every
/// borrow a task captures must outlive the `scope` call, and the scope joins
/// all tasks before returning, so those borrows are live for as long as any
/// task can run.
pub struct Scope<'pool, 'env> {
    pool: &'pool ThreadPool,
    join: Arc<Join>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Queues `task` for execution on the pool. It may borrow anything that
    /// outlives `'env`; the enclosing [`ThreadPool::scope`] call joins it
    /// before returning.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'env) {
        self.spawn_all(std::iter::once(task));
    }

    /// Queues every task of `tasks` at once: one count on the scope, one
    /// lock on the injector and at most one wake per idle worker (see
    /// [`ThreadPool::par_map`]).
    fn spawn_all<F: FnOnce() + Send + 'env>(&self, tasks: impl ExactSizeIterator<Item = F>) {
        // Counted before any of them can run and complete.
        self.join.add_tasks(tasks.len());
        let tasks = tasks.map(|task| {
            let body: Box<dyn FnOnce() + Send + 'env> = Box::new(task);
            // SAFETY: the task may borrow data of lifetime 'env. `scope`
            // joins (blocks until `Join::pending == 0`) before it
            // returns, and 'env outlives the `scope` call by
            // construction of the invariant lifetime, so every borrow is
            // live whenever the body can run.
            let body: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(body) };
            Task {
                body,
                join: Arc::clone(&self.join),
            }
        });
        self.pool.injector.push(tasks);
    }

    /// Width of the owning pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_matches_serial_for_any_width() {
        let serial: Vec<u64> = (0..257)
            .map(|i| (i as u64).wrapping_mul(0x9e37) ^ 7)
            .collect();
        for threads in [1, 2, 3, 4, 8] {
            let pool = ThreadPool::new(threads);
            let parallel = pool.par_map(257, |i| (i as u64).wrapping_mul(0x9e37) ^ 7);
            assert_eq!(parallel, serial, "width {threads} diverged");
        }
    }

    #[test]
    fn par_map_handles_edge_sizes() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.par_map(1, |i| i * 10), vec![0]);
        assert_eq!(pool.par_map(3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn scope_joins_every_task_before_returning() {
        let pool = ThreadPool::new(4);
        let mut slots = [false; 100];
        pool.scope(|s| {
            for slot in slots.iter_mut() {
                s.spawn(move || {
                    *slot = true;
                });
            }
        });
        // If the scope returned before a task ran, its slot would still be
        // false (and the borrow above would have been unsound).
        assert!(slots.iter().all(|&b| b), "scope returned before joining");
    }

    #[test]
    fn scope_tasks_actually_run_on_workers() {
        // Deterministically force worker execution: the caller blocks on
        // the channel *inside* the scope closure (before it ever joins and
        // drains the queue), so only a worker thread can run the task.
        let pool = ThreadPool::new(4);
        let caller = std::thread::current().id();
        let (tx, rx) = std::sync::mpsc::channel();
        pool.scope(|s| {
            s.spawn(move || {
                tx.send(std::thread::current().id()).unwrap();
            });
            let worker = rx.recv().expect("task must run while caller waits");
            assert_ne!(worker, caller, "task ran on the calling thread");
        });
    }

    #[test]
    fn task_panic_propagates_to_the_caller_after_join() {
        let pool = ThreadPool::new(4);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..16 {
                    let finished = &finished;
                    s.spawn(move || {
                        if i == 7 {
                            panic!("boom from task 7");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        let payload = result.expect_err("task panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(message.contains("boom"), "unexpected payload {message:?}");
        // Every non-panicking task still completed before the unwind.
        assert_eq!(finished.load(Ordering::SeqCst), 15);
        // The pool survives a task panic and stays usable.
        assert_eq!(pool.par_map(4, |i| i * 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn par_map_panic_propagates() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(32, |i| {
                if i == 13 {
                    panic!("unlucky");
                }
                i
            })
        }));
        assert!(result.is_err(), "par_map must re-raise task panics");
    }

    #[test]
    fn nested_par_map_completes() {
        let pool = ThreadPool::new(4);
        let out = pool.par_map(8, |i| pool.par_map(8, |j| i * j).iter().sum::<usize>());
        let expect: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn fan_outs_count_the_maps_that_split() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.fan_outs(), 0);
        pool.par_map(1, |i| i);
        assert_eq!(pool.fan_outs(), 0, "one item runs inline");
        pool.par_map(64, |i| i);
        assert_eq!(pool.fan_outs(), 1, "one push for all of a map's chunks");
        pool.scope(|s| s.spawn(|| {}));
        assert_eq!(pool.fan_outs(), 2);
        let serial = ThreadPool::serial();
        serial.par_map(64, |i| i);
        assert_eq!(serial.fan_outs(), 0, "a serial map runs inline");
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = ThreadPool::serial();
        assert_eq!(pool.threads(), 1);
        assert!(!pool.is_parallel());
        let caller = std::thread::current().id();
        let same_thread = pool.par_map(10, |i| (std::thread::current().id() == caller, i));
        assert!(same_thread.iter().all(|&(same, _)| same));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_width_pool_is_rejected() {
        let _ = ThreadPool::new(0);
    }
}
