//! # gbcr-des — deterministic discrete-event simulation engine
//!
//! The substrate every other crate in this workspace runs on. It provides a
//! virtual clock with nanosecond resolution, an event queue with a total
//! deterministic order, and *blocking simulated processes*: each simulated
//! entity (an MPI rank, a storage server, the checkpoint coordinator) is
//! written as ordinary straight-line blocking code — exactly like a real
//! MPI program — while a handoff protocol guarantees **exactly one**
//! simulated process executes at any instant, keeping the whole run
//! bit-for-bit reproducible for a given seed.
//!
//! This mirrors the classic process-oriented simulation style (SimPy,
//! OMNeT++ "activities"): a process runs until it *yields* — by sleeping,
//! by blocking on a [`Signal`], or by finishing — and the scheduler then
//! dispatches the next event in `(time, sequence)` order.
//!
//! ## Why blocking processes and not async?
//!
//! The workloads we simulate (HPL, MotifMiner, the paper's micro-benchmarks)
//! are most naturally expressed as blocking MPI programs, so the
//! user-facing API stays free of combinators and lifetimes. Underneath,
//! two interchangeable executors provide the blocking illusion (see
//! [`DesConfig`]): the default *pooled* backend runs each process as a
//! stackful coroutine that the scheduler resumes inline on its own thread
//! (no OS thread per rank and no cross-thread handoff — this is what
//! makes 10k-rank simulations affordable), and the legacy *threaded*
//! backend dedicates an OS thread per process with a mutex+condvar baton.
//! Determinism is a property of the scheduler's total event order, not of
//! the backend, and the benchmark harness checks byte-identical output
//! across both on every run.
//!
//! ## Quick example
//!
//! ```
//! use gbcr_des::{Sim, time};
//!
//! let mut sim = Sim::new(42);
//! let sig = sim.signal("ready");
//! let sig2 = sig.clone();
//! sim.spawn("producer", move |p| {
//!     p.sleep(time::ms(10));
//!     sig2.notify_all(p);
//! });
//! sim.spawn("consumer", move |p| {
//!     sig.wait(p);
//!     assert_eq!(p.now(), time::ms(10));
//! });
//! let end = sim.run().unwrap();
//! assert_eq!(end, time::ms(10));
//! ```

#![warn(missing_docs)]

mod coro;
mod engine;
mod error;
mod exec;
mod pool;
mod process;
mod signal;
pub mod time;
mod timer;
mod wake;

/// The structured tracing subsystem (re-exported so downstream crates
/// reach span/event types through the engine they already depend on).
pub use gbcr_trace as trace;

pub use engine::{
    total_events_processed, total_procs_spawned, total_wakes_elided, Sim, SimHandle,
};
pub use error::{SimError, SimResult};
pub use exec::{executor_default, set_executor_default, DesConfig, ExecKind};
pub use gbcr_trace::{Arg, ArgValue, Event, Span, TraceData, TraceLevel, Tracer, Track};
pub use pool::pool_threads;
#[doc(hidden)]
pub use process::kill_unwind_flag_set;
pub use process::{Proc, ProcId};
pub use signal::Signal;
pub use time::Time;
pub use timer::TimerHandle;
pub use wake::DemandWake;

/// The event scheduler a run uses. There is one: the serial `(time, seq)`
/// heap loop in [`Sim::run`]. This type, [`sched_default`],
/// [`set_sched_default`] and [`shard_count_default`] exist only because
/// the `perfbench/` harness names them; they configure nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// The serial heap loop.
    Serial,
}

impl SchedKind {
    /// Stable lower-case name, as emitted in benchmark output.
    pub fn name(self) -> &'static str {
        "serial"
    }
}

/// Always [`SchedKind::Serial`] (kept for `perfbench/`, see [`SchedKind`]).
pub fn sched_default() -> SchedKind {
    SchedKind::Serial
}

/// No-op (kept for `perfbench/`, see [`SchedKind`]).
pub fn set_sched_default(_kind: SchedKind) {}

/// Always 1 (kept for `perfbench/`, see [`SchedKind`]).
pub fn shard_count_default() -> usize {
    1
}
