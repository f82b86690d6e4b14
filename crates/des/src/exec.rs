//! Executor abstraction: how simulated processes get something to run on.
//!
//! The scheduler does not care whether a simulated process is backed by a
//! dedicated OS thread or by a coroutine it runs inline; it only needs the
//! [`Gate`] handoff contract (resume a process, get control back once it
//! parks or finishes). This module defines that contract, the
//! [`Executor`] factory behind [`crate::Sim::spawn`], and the legacy
//! thread-per-process implementation; the pooled coroutine
//! implementation lives in [`crate::pool`].

use crate::process::{clear_kill_unwind_flag, KillSignal};
use parking_lot::{Condvar, Mutex};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Which execution backend a [`crate::Sim`] uses for its simulated
/// processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecKind {
    /// Resumable tasks (stackful coroutines) run inline on the thread
    /// that drives the simulation: no OS thread per process and no
    /// executor threads at all. The default wherever the architecture
    /// supports it.
    Pooled,
    /// One OS thread per simulated process with a mutex+condvar baton —
    /// the legacy mode, kept as an A/B fallback (`GBCR_EXECUTOR=threaded`)
    /// and for architectures without a coroutine context switch.
    Threaded,
}

impl ExecKind {
    /// Stable lower-case name, as used by `GBCR_EXECUTOR` and emitted in
    /// benchmark JSON.
    pub fn name(self) -> &'static str {
        match self {
            ExecKind::Pooled => "pooled",
            ExecKind::Threaded => "threaded",
        }
    }
}

/// Per-[`crate::Sim`] execution configuration; pass to
/// [`crate::Sim::with_config`].
#[derive(Debug, Clone)]
pub struct DesConfig {
    /// The execution backend.
    pub executor: ExecKind,
    /// Coroutine stack size in bytes (pooled mode only). Stacks are
    /// lazily committed, so generous sizes cost virtual address space,
    /// not resident memory. Default 1 MiB, overridable with
    /// `GBCR_STACK_KB`.
    pub stack_bytes: usize,
}

impl DesConfig {
    /// The pooled-coroutine backend (falls back to threaded on
    /// architectures without a context switch).
    pub fn pooled() -> Self {
        DesConfig { executor: clamp_supported(ExecKind::Pooled), ..Self::base() }
    }

    /// The legacy thread-per-process backend.
    pub fn threaded() -> Self {
        DesConfig { executor: ExecKind::Threaded, ..Self::base() }
    }

    fn base() -> Self {
        let stack_kb = std::env::var("GBCR_STACK_KB")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&kb| kb > 0)
            .unwrap_or(1024);
        DesConfig { executor: ExecKind::Threaded, stack_bytes: stack_kb * 1024 }
    }

    pub(crate) fn build_executor(&self) -> Box<dyn Executor> {
        match clamp_supported(self.executor) {
            ExecKind::Pooled => {
                Box::new(crate::pool::PooledExecutor { stack_bytes: self.stack_bytes })
            }
            ExecKind::Threaded => Box::new(ThreadedExecutor),
        }
    }
}

impl Default for DesConfig {
    /// Resolution order: process-wide [`set_executor_default`] if one was
    /// set, else the `GBCR_EXECUTOR` environment variable
    /// (`pooled`/`threaded`), else pooled where supported.
    fn default() -> Self {
        DesConfig { executor: executor_default(), ..Self::base() }
    }
}

fn clamp_supported(kind: ExecKind) -> ExecKind {
    if matches!(kind, ExecKind::Pooled) && !crate::coro::supported() {
        ExecKind::Threaded
    } else {
        kind
    }
}

/// Process-wide executor default: 0 = unset, 1 = pooled, 2 = threaded.
static EXEC_DEFAULT: AtomicU8 = AtomicU8::new(0);

/// Force every subsequently created [`crate::Sim`] (without an explicit
/// [`DesConfig`]) onto the given backend. Takes precedence over
/// `GBCR_EXECUTOR`; used by the benchmark harness's pooled-vs-threaded
/// identity check.
pub fn set_executor_default(kind: ExecKind) {
    let v = match kind {
        ExecKind::Pooled => 1,
        ExecKind::Threaded => 2,
    };
    EXEC_DEFAULT.store(v, Ordering::Relaxed);
}

/// The backend [`DesConfig::default`] currently resolves to.
pub fn executor_default() -> ExecKind {
    match EXEC_DEFAULT.load(Ordering::Relaxed) {
        1 => return clamp_supported(ExecKind::Pooled),
        2 => return ExecKind::Threaded,
        _ => {}
    }
    if let Ok(v) = std::env::var("GBCR_EXECUTOR") {
        match v.to_ascii_lowercase().as_str() {
            "pooled" | "pool" | "coro" => return clamp_supported(ExecKind::Pooled),
            "threaded" | "thread" => return ExecKind::Threaded,
            _ => {}
        }
    }
    clamp_supported(ExecKind::Pooled)
}

/// Why a [`Gate::resume`] did not return normally.
#[derive(Debug)]
pub(crate) enum ResumeError {
    /// The process's slice ended in a (non-kill) panic, rendered to a
    /// string.
    Panicked(String),
    /// The process was already queued or running when resumed again — a
    /// scheduler bug, reported per-cell instead of aborting the process.
    DoubleResume,
}

/// The scheduler↔process handoff contract. `resume` hands control to the
/// process and returns once it parks or finishes; `park` is the process
/// side handing control back. Exactly one simulated process runs at any
/// instant because the scheduler only ever resumes one gate at a time and
/// is held inside `resume` until the slice is over.
pub(crate) trait Gate: Send + Sync {
    /// Scheduler side: run one slice of this process. `Ok` on park or
    /// normal finish (stale wakes on finished processes are no-ops). The
    /// pooled backend runs the slice on the calling thread.
    fn resume(&self) -> Result<(), ResumeError>;
    /// Process side: yield back to the scheduler; returns when resumed.
    fn park(&self);
    /// Whether the process has terminated (normally, by panic, or by
    /// kill).
    fn is_done(&self) -> bool;
}

/// The ready-to-run closure for one simulated process: the user closure
/// with its [`crate::Proc`] context already bound.
pub(crate) type TaskBody = Box<dyn FnOnce() + Send + 'static>;

/// A spawned task: its gate, plus a join handle when the backend owns a
/// dedicated OS thread for it.
pub(crate) struct SpawnedTask {
    pub(crate) gate: Arc<dyn Gate>,
    pub(crate) join: Option<JoinHandle<()>>,
}

/// Factory for simulated-process run contexts. `make_body` closes the
/// gate↔process-context cycle: the executor creates the gate first, the
/// caller builds the `Proc` around it and returns the bound body.
pub(crate) trait Executor: Send + Sync {
    fn spawn(
        &self,
        name: Arc<str>,
        killed: Arc<AtomicBool>,
        stats: Arc<ExecStats>,
        make_body: Box<dyn FnOnce(Arc<dyn Gate>) -> TaskBody + '_>,
    ) -> SpawnedTask;
    fn kind(&self) -> ExecKind;
    /// Peak OS threads this backend used for process execution.
    fn exec_threads(&self, stats: &ExecStats) -> u64;
}

/// Execution counters for one simulation: spawn/teardown cost and
/// process-liveness high-water marks, reported next to the engine's
/// event/elision counters.
#[derive(Default)]
pub(crate) struct ExecStats {
    spawned: AtomicU64,
    live: AtomicU64,
    peak_live: AtomicU64,
    spawn_ns: AtomicU64,
    teardown_ns: AtomicU64,
}

impl ExecStats {
    pub(crate) fn task_spawned(&self) {
        self.spawned.fetch_add(1, Ordering::Relaxed);
        let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_live.fetch_max(live, Ordering::Relaxed);
    }

    pub(crate) fn task_done(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn add_spawn_ns(&self, ns: u64) {
        self.spawn_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn add_teardown_ns(&self, ns: u64) {
        self.teardown_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn spawned(&self) -> u64 {
        self.spawned.load(Ordering::Relaxed)
    }

    pub(crate) fn peak_live(&self) -> u64 {
        self.peak_live.load(Ordering::Relaxed)
    }

    pub(crate) fn spawn_ns(&self) -> u64 {
        self.spawn_ns.load(Ordering::Relaxed)
    }

    pub(crate) fn teardown_ns(&self) -> u64 {
        self.teardown_ns.load(Ordering::Relaxed)
    }
}

pub(crate) fn panic_payload_to_string(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Map a `catch_unwind` result to a task outcome: kill unwinds are normal
/// terminations, anything else is a real panic.
pub(crate) fn outcome_from(
    result: Result<(), Box<dyn std::any::Any + Send>>,
) -> Result<(), String> {
    match result {
        Ok(()) => Ok(()),
        Err(payload) if payload.is::<KillSignal>() => Ok(()),
        Err(payload) => Err(panic_payload_to_string(payload.as_ref())),
    }
}

// ---------------------------------------------------------------------------
// Threaded backend: one OS thread per process, mutex+condvar baton.
// ---------------------------------------------------------------------------

/// Who currently holds the baton for one process thread.
#[derive(Debug)]
enum Baton {
    /// The process thread is parked; the scheduler may resume it.
    Parked,
    /// The process thread is running; the scheduler is waiting.
    Running,
    /// The process finished normally (or was killed, which is a normal end).
    DoneOk,
    /// The process panicked with the given rendered payload.
    DonePanic(String),
}

/// The per-process handoff cell shared by the scheduler and the process
/// thread.
struct ThreadGate {
    state: Mutex<Baton>,
    cv: Condvar,
}

impl ThreadGate {
    fn new() -> Arc<Self> {
        Arc::new(ThreadGate { state: Mutex::new(Baton::Parked), cv: Condvar::new() })
    }

    /// Process side: block until the scheduler first resumes us. The state
    /// starts out `Parked`, so this is just the waiting half of `park`.
    fn wait_first_resume(&self) {
        let mut st = self.state.lock();
        while matches!(*st, Baton::Parked) {
            self.cv.wait(&mut st);
        }
    }

    /// Process side: terminal hand-back.
    fn finish(&self, outcome: Result<(), String>) {
        let mut st = self.state.lock();
        *st = match outcome {
            Ok(()) => Baton::DoneOk,
            Err(msg) => Baton::DonePanic(msg),
        };
        self.cv.notify_all();
    }
}

impl Gate for ThreadGate {
    /// A single lock acquisition covers the whole handoff: the condvar wait
    /// releases the mutex atomically, so the process thread (blocked on the
    /// same condvar) acquires it, observes `Running`, and runs — there is no
    /// unlock/relock gap between publishing `Running` and starting to wait.
    fn resume(&self) -> Result<(), ResumeError> {
        let mut st = self.state.lock();
        match *st {
            Baton::Parked => {
                *st = Baton::Running;
                self.cv.notify_all();
            }
            Baton::DoneOk | Baton::DonePanic(_) => return Ok(()),
            Baton::Running => return Err(ResumeError::DoubleResume),
        }
        while matches!(*st, Baton::Running) {
            self.cv.wait(&mut st);
        }
        match &*st {
            Baton::DonePanic(msg) => Err(ResumeError::Panicked(msg.clone())),
            _ => Ok(()),
        }
    }

    fn park(&self) {
        let mut st = self.state.lock();
        *st = Baton::Parked;
        self.cv.notify_all();
        while matches!(*st, Baton::Parked) {
            self.cv.wait(&mut st);
        }
    }

    fn is_done(&self) -> bool {
        matches!(*self.state.lock(), Baton::DoneOk | Baton::DonePanic(_))
    }
}

/// The legacy executor: a dedicated OS thread per simulated process.
pub(crate) struct ThreadedExecutor;

impl Executor for ThreadedExecutor {
    fn spawn(
        &self,
        name: Arc<str>,
        killed: Arc<AtomicBool>,
        stats: Arc<ExecStats>,
        make_body: Box<dyn FnOnce(Arc<dyn Gate>) -> TaskBody + '_>,
    ) -> SpawnedTask {
        let gate = ThreadGate::new();
        let body = make_body(gate.clone());
        let thread_gate = gate.clone();
        let join = std::thread::Builder::new()
            .name(format!("sim-{name}"))
            .spawn(move || {
                thread_gate.wait_first_resume();
                if killed.load(Ordering::Relaxed) {
                    // Killed before ever running: terminate without
                    // invoking the body.
                    drop(body);
                    thread_gate.finish(Ok(()));
                    stats.task_done();
                    return;
                }
                let result = std::panic::catch_unwind(AssertUnwindSafe(body));
                // The thread dies right after, but clearing keeps the TLS
                // contract identical across backends.
                clear_kill_unwind_flag();
                thread_gate.finish(outcome_from(result));
                stats.task_done();
            })
            .expect("failed to spawn simulation thread");
        SpawnedTask { gate, join: Some(join) }
    }

    fn kind(&self) -> ExecKind {
        ExecKind::Threaded
    }

    fn exec_threads(&self, stats: &ExecStats) -> u64 {
        stats.peak_live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resuming a gate whose process is mid-slice is a scheduler bug; it
    /// must surface as the typed error, not hang or abort.
    #[test]
    fn thread_gate_double_resume_is_typed_error() {
        let gate = ThreadGate::new();
        *gate.state.lock() = Baton::Running;
        assert!(matches!(gate.resume(), Err(ResumeError::DoubleResume)));
        // Terminal states keep absorbing stale resumes.
        *gate.state.lock() = Baton::DoneOk;
        assert!(gate.resume().is_ok());
    }

    #[test]
    fn executor_kind_names_are_stable() {
        assert_eq!(ExecKind::Pooled.name(), "pooled");
        assert_eq!(ExecKind::Threaded.name(), "threaded");
    }
}
