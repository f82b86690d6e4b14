//! The pooled coroutine executor: simulated processes as resumable tasks
//! run inline on the thread that drives the simulation.
//!
//! Each simulated process owns a [`TaskCell`] — the task-handoff cell the
//! scheduler resumes through the [`Gate`] contract — plus a lazily
//! allocated coroutine stack. `resume` switches from the caller's stack
//! onto the task's stack, runs the slice until the process parks or
//! finishes, and switches back: the slice is hosted by the *calling*
//! thread (the serial scheduler's thread, a parallel-scheduler shard
//! worker, or the fenced-window control thread), with no queue, no
//! condvar and no second OS thread. Live OS threads therefore do not
//! grow with rank count at all, and the one-runnable-process-at-a-time
//! invariant holds trivially: the resuming thread is busy inside the
//! slice until it ends.
//!
//! Determinism is untouched. Virtual time, RNG draws, and event order all
//! come from the scheduler, which serializes slices exactly as the
//! threaded backend does. The one thread-keyed piece of state, the
//! kill-unwind TLS flag, is reset at the end of every slice-terminating
//! unwind (see [`task_entry`]), so a killed slice never leaves it set on
//! the scheduler's thread.
//!
//! Memory-safety protocol for the `UnsafeCell` fields: `stack`,
//! `task_sp`, `host_sp`, `body` and `pending` are only touched (a) by
//! the thread currently hosting the slice — which includes the coroutine
//! itself, since it runs *on* that thread — or (b) by `Executor::spawn`
//! before the cell is shared. Under the parallel scheduler successive
//! slices of one task may be hosted by different threads; that handover
//! is ordered by the `st` mutex: a host publishes `Parked` under the lock
//! after its last access, and the next host observes `Parked → Running`
//! under the same lock before its first access.

use crate::coro::{init_stack, switch_stacks, Stack};
use crate::exec::{
    outcome_from, ExecKind, ExecStats, Executor, Gate, ResumeError, SpawnedTask, TaskBody,
};
use crate::process::clear_kill_unwind_flag;
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Scheduler-visible state of one pooled task.
#[derive(Debug)]
enum CellState {
    /// Spawned, body not yet started.
    New,
    /// Suspended at a park point; the scheduler may resume it.
    Parked,
    /// A thread is executing the current slice.
    Running,
    /// Finished: normally, by kill, or by a panic already reported to
    /// the resume that ran the final slice.
    Done,
}

/// How the coroutine left its slice; written by the coroutine (or the
/// kill-before-start shortcut) and converted into the final [`CellState`]
/// by the host *after* the stack switch back.
enum Pending {
    Parked,
    DoneOk,
    DonePanic(String),
}

/// One pooled task: handoff cell + coroutine context.
pub(crate) struct TaskCell {
    name: Arc<str>,
    killed: Arc<AtomicBool>,
    stats: Arc<ExecStats>,
    stack_bytes: usize,
    st: Mutex<CellState>,
    // Slice-local fields; see the module-level safety protocol.
    stack: UnsafeCell<Option<Stack>>,
    task_sp: UnsafeCell<usize>,
    host_sp: UnsafeCell<usize>,
    body: UnsafeCell<Option<TaskBody>>,
    pending: UnsafeCell<Pending>,
}

// SAFETY: the `UnsafeCell` fields are confined to the thread hosting the
// current slice, with cross-slice ordering through the `st` mutex (see
// the module docs); everything else is Sync on its own.
unsafe impl Send for TaskCell {}
unsafe impl Sync for TaskCell {}

impl Gate for TaskCell {
    fn resume(&self) -> Result<(), ResumeError> {
        {
            let mut st = self.st.lock();
            match *st {
                CellState::New | CellState::Parked => *st = CellState::Running,
                CellState::Done => return Ok(()),
                CellState::Running => return Err(ResumeError::DoubleResume),
            }
        }
        self.run_slice()
    }

    fn park(&self) {
        // SAFETY: called from the coroutine, i.e. on the thread currently
        // hosting the slice; `task_sp`/`host_sp` are valid, and the host
        // side of the switch re-checks the stack canary.
        unsafe {
            *self.pending.get() = Pending::Parked;
            switch_stacks(self.task_sp.get(), self.host_sp.get());
        }
    }

    fn is_done(&self) -> bool {
        matches!(*self.st.lock(), CellState::Done)
    }
}

impl TaskCell {
    /// Host side: execute one slice (first entry, resumption, or the
    /// kill-before-start shortcut) on the calling thread and publish the
    /// resulting state. The caller has already moved the cell to
    /// `Running`.
    fn run_slice(&self) -> Result<(), ResumeError> {
        // SAFETY for all blocks below: the calling thread owns the
        // slice-local fields until it publishes a new `st` (module-level
        // protocol).
        let started = unsafe { (*self.stack.get()).is_some() };
        if !started && self.killed.load(Ordering::Relaxed) {
            // Killed before ever running (including shutdown of a task
            // that was spawned but never resumed): terminate without
            // invoking the body or allocating a stack. Dropping the body
            // also breaks the body→Proc→gate Arc cycle.
            unsafe { *self.body.get() = None };
            return self.publish(Pending::DoneOk);
        }
        if !started {
            let stack = Stack::new(self.stack_bytes);
            // SAFETY: the stack lives in the cell until the task is
            // terminal, and the cell (behind the process table's Arc)
            // outlives the coroutine.
            let sp = unsafe { init_stack(&stack, (self as *const TaskCell).cast()) };
            unsafe {
                *self.stack.get() = Some(stack);
                *self.task_sp.get() = sp;
            }
        }
        // SAFETY: `task_sp` is a context forged by `init_stack` or saved
        // by a previous `park`, on a stack no thread is currently running
        // on.
        unsafe { switch_stacks(self.host_sp.get(), self.task_sp.get()) };
        let canary_ok = unsafe { (*self.stack.get()).as_ref().is_none_or(Stack::canary_ok) };
        if !canary_ok {
            eprintln!(
                "fatal: simulated process '{}' overflowed its {} KiB coroutine stack; \
                 raise GBCR_STACK_KB",
                self.name,
                self.stack_bytes / 1024
            );
            std::process::abort();
        }
        let pending = unsafe { std::mem::replace(&mut *self.pending.get(), Pending::Parked) };
        self.publish(pending)
    }

    /// Convert the slice outcome into the cell's public state and the
    /// caller's result. Terminal outcomes free the coroutine stack first
    /// — nothing will ever switch into it again.
    fn publish(&self, pending: Pending) -> Result<(), ResumeError> {
        let (new_state, result) = match pending {
            Pending::Parked => (CellState::Parked, Ok(())),
            Pending::DoneOk => (CellState::Done, Ok(())),
            Pending::DonePanic(msg) => (CellState::Done, Err(ResumeError::Panicked(msg))),
        };
        if matches!(new_state, CellState::Done) {
            // SAFETY: the coroutine has switched out for good (its entry
            // function never returns to this stack after writing a
            // terminal `pending`), so the stack is dead.
            unsafe { *self.stack.get() = None };
            self.stats.task_done();
        }
        *self.st.lock() = new_state;
        result
    }
}

/// Coroutine entry point, reached through the architecture trampoline on
/// the task's own stack. Runs the body under `catch_unwind` (so no unwind
/// ever crosses the forged trampoline frame), resets the kill-unwind TLS
/// flag of the hosting thread before it goes back to the scheduler, and
/// switches out for good. Every local with a destructor is scoped to drop
/// before that final switch — the abandoned stack holds only dead bytes.
pub(crate) extern "C" fn task_entry(cell: *const ()) -> ! {
    let cell = cell.cast::<TaskCell>();
    let (task_sp, host_sp) = {
        // SAFETY: the cell is kept alive by the `Arc` in the scheduler's
        // process table for at least as long as the task can run.
        let c = unsafe { &*cell };
        let body = unsafe { (*c.body.get()).take() }.expect("pooled task body present");
        let result = std::panic::catch_unwind(AssertUnwindSafe(body));
        // The hosting thread is the scheduler's: it must not carry the
        // quiet-unwind TLS flag into the next slice it runs, or a real
        // panic there would have its output swallowed.
        clear_kill_unwind_flag();
        let pending = match outcome_from(result) {
            Ok(()) => Pending::DoneOk,
            Err(msg) => Pending::DonePanic(msg),
        };
        // SAFETY: slice-local field, and this coroutine *is* the slice.
        unsafe { *c.pending.get() = pending };
        (c.task_sp.get(), c.host_sp.get().cast_const())
    };
    // SAFETY: hands control back to the host's saved context; the save
    // slot is never read again (the stack is freed by `publish`).
    unsafe { switch_stacks(task_sp, host_sp) };
    unreachable!("finished coroutine resumed")
}

/// The pooled executor: builds [`TaskCell`]s that run inline on whichever
/// thread resumes them.
pub(crate) struct PooledExecutor {
    pub(crate) stack_bytes: usize,
}

impl Executor for PooledExecutor {
    fn spawn(
        &self,
        name: Arc<str>,
        killed: Arc<AtomicBool>,
        stats: Arc<ExecStats>,
        make_body: Box<dyn FnOnce(Arc<dyn Gate>) -> TaskBody + '_>,
    ) -> SpawnedTask {
        let cell = Arc::new(TaskCell {
            name,
            killed,
            stats,
            stack_bytes: self.stack_bytes,
            st: Mutex::new(CellState::New),
            stack: UnsafeCell::new(None),
            task_sp: UnsafeCell::new(0),
            host_sp: UnsafeCell::new(0),
            body: UnsafeCell::new(None),
            pending: UnsafeCell::new(Pending::Parked),
        });
        let body = make_body(cell.clone());
        // SAFETY: the cell is not yet shared with any other thread.
        unsafe { *cell.body.get() = Some(body) };
        SpawnedTask { gate: cell, join: None }
    }

    fn kind(&self) -> ExecKind {
        ExecKind::Pooled
    }

    /// Slices run on the thread that drives the simulation.
    fn exec_threads(&self, _stats: &ExecStats) -> u64 {
        1
    }
}

/// Extra OS threads the pooled executor starts to host process slices:
/// always 0, because every slice runs on the calling thread — the one
/// that drives the [`crate::Sim`] (or, under the parallel scheduler, the
/// shard worker executing that process's window).
pub fn pool_threads() -> usize {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    struct DropFlag(Arc<AtomicBool>);
    impl Drop for DropFlag {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    /// A cell whose body records that it ran; returns the cell, its kill
    /// flag, a flag set when the body is dropped, and one set when it ran.
    fn test_cell() -> (Arc<TaskCell>, Arc<AtomicBool>, Arc<AtomicBool>, Arc<AtomicBool>) {
        let ex = PooledExecutor { stack_bytes: 64 * 1024 };
        let stats = Arc::new(ExecStats::default());
        stats.task_spawned();
        let killed = Arc::new(AtomicBool::new(false));
        let dropped = Arc::new(AtomicBool::new(false));
        let ran = Arc::new(AtomicBool::new(false));
        let flag = DropFlag(dropped.clone());
        let ran2 = ran.clone();
        let task = ex.spawn(
            "t".into(),
            killed.clone(),
            stats,
            Box::new(move |_gate| {
                Box::new(move || {
                    let _keep = &flag;
                    ran2.store(true, Ordering::Relaxed);
                })
            }),
        );
        // The concrete cell type is ours; recover it from the spawn path.
        let gate: Arc<dyn Gate> = task.gate;
        // SAFETY: PooledExecutor::spawn only ever builds TaskCells.
        let cell = unsafe { Arc::from_raw(Arc::into_raw(gate).cast::<TaskCell>()) };
        (cell, killed, dropped, ran)
    }

    /// Resuming a running cell is a scheduler bug; it must surface as the
    /// typed error (not `unreachable!`, not a hang).
    #[test]
    fn task_cell_double_resume_is_typed_error() {
        let (cell, ..) = test_cell();
        *cell.st.lock() = CellState::Running;
        assert!(matches!(cell.resume(), Err(ResumeError::DoubleResume)));
        // Terminal states keep absorbing stale resumes.
        *cell.st.lock() = CellState::Done;
        assert!(cell.resume().is_ok());
    }

    /// Shutdown of a never-started task terminates it in place: the body
    /// is dropped (releasing the Proc context) without running, and no
    /// coroutine stack is allocated.
    #[test]
    fn killed_unstarted_cell_drops_body_without_running() {
        let (cell, killed, dropped, ran) = test_cell();
        killed.store(true, Ordering::Relaxed);
        assert!(!cell.is_done());
        assert!(cell.resume().is_ok());
        assert!(cell.is_done());
        assert!(dropped.load(Ordering::Relaxed), "body not dropped");
        assert!(!ran.load(Ordering::Relaxed), "killed body ran");
        // SAFETY: the cell is terminal; no slice is running.
        assert!(unsafe { (*cell.stack.get()).is_none() }, "stack allocated");
        // Idempotent.
        assert!(cell.resume().is_ok());
        assert!(cell.is_done());
    }

    /// A live cell's slice runs on the calling thread's stack switch and
    /// comes back terminal, with its stack freed.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn resume_runs_slice_on_calling_thread() {
        let (cell, _, dropped, ran) = test_cell();
        assert!(cell.resume().is_ok());
        assert!(ran.load(Ordering::Relaxed));
        assert!(dropped.load(Ordering::Relaxed));
        assert!(cell.is_done());
        // SAFETY: the cell is terminal; no slice is running.
        assert!(unsafe { (*cell.stack.get()).is_none() }, "stack not freed");
    }
}
