//! Executor equivalence suite: the pooled coroutine backend and the
//! legacy thread-per-process backend must be observationally identical —
//! same event tables, same kill/panic semantics, same TLS hygiene — while
//! only the pooled backend can afford a 10k-process simulation.
//!
//! Every test here takes [`THREADS`]: the threaded backend starts OS
//! threads, and the 10k-process test asserts that the pooled run starts
//! none, which it can only observe with no other test of this binary
//! creating threads at the same time.

use gbcr_des::{time, DesConfig, ExecKind, Sim, SimError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Serializes this file's tests; see the module docs.
static THREADS: Mutex<()> = Mutex::new(());

/// A mixed workload exercising every yield primitive: sleeps, signal
/// wait/notify, spawn-during-run, park/wake, and a mid-run kill. Returns
/// the full `(virtual time, marker)` event table plus the end time.
fn note(log: &Mutex<Vec<(u64, String)>>, p: &gbcr_des::Proc, what: &str) {
    log.lock().push((p.now(), format!("{}:{}", p.name(), what)));
}

fn run_recorded(cfg: DesConfig) -> (Vec<(u64, String)>, u64) {
    let log: Arc<Mutex<Vec<(u64, String)>>> = Arc::new(Mutex::new(Vec::new()));

    let mut sim = Sim::with_config(7, cfg);
    let sig = sim.signal("go");

    for i in 0..3u64 {
        let log = log.clone();
        sim.spawn(format!("ticker{i}"), move |p| {
            for _ in 0..4 {
                p.sleep(time::ms(3 + i));
                note(&log, p, "tick");
            }
        });
    }

    for i in 0..2u64 {
        let sig = sig.clone();
        let log = log.clone();
        sim.spawn(format!("waiter{i}"), move |p| {
            sig.wait(p);
            note(&log, p, "woken");
        });
    }

    {
        let sig = sig.clone();
        let log = log.clone();
        sim.spawn("notifier", move |p| {
            p.sleep(time::ms(7));
            note(&log, p, "notify");
            sig.notify_all(p);
        });
    }

    {
        let log = log.clone();
        sim.spawn("spawner", move |p| {
            p.sleep(time::ms(2));
            let log2 = log.clone();
            p.handle().spawn("child", move |c| {
                c.sleep(time::ms(1));
                log2.lock().push((c.now(), "child:done".to_owned()));
            });
            note(&log, p, "spawned");
        });
    }

    let victim = {
        let log = log.clone();
        sim.spawn("victim", move |p| loop {
            p.sleep(time::ms(4));
            note(&log, p, "alive");
        })
    };
    sim.handle().call_at(time::ms(9), move |h| h.kill(victim));

    let end = sim.run().expect("mixed workload completes");
    sim.shutdown();
    let table = log.lock().clone();
    (table, end)
}

#[test]
fn event_tables_byte_identical_across_executors() {
    let _serial = THREADS.lock();
    let (pooled, end_p) = run_recorded(DesConfig::pooled());
    let (threaded, end_t) = run_recorded(DesConfig::threaded());
    assert_eq!(end_p, end_t, "end times differ across executors");
    assert_eq!(pooled, threaded, "event tables differ across executors");
    assert!(!pooled.is_empty());
}

/// Kill semantics must match: the victim's destructors run (its unwind is
/// a real unwind, not a leak) and the run completes cleanly on both
/// backends.
#[test]
fn kill_runs_destructors_on_both_executors() {
    let _serial = THREADS.lock();
    struct Sentinel(Arc<AtomicBool>);
    impl Drop for Sentinel {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    for cfg in [DesConfig::pooled(), DesConfig::threaded()] {
        let dropped = Arc::new(AtomicBool::new(false));
        let mut sim = Sim::with_config(1, cfg);
        let sentinel = Sentinel(dropped.clone());
        let victim = sim.spawn("victim", move |p| {
            let _held = &sentinel;
            loop {
                p.sleep(time::ms(1));
            }
        });
        sim.handle().call_at(time::ms(5), move |h| h.kill(victim));
        sim.run().expect("kill is a clean termination");
        sim.shutdown();
        assert!(
            dropped.load(Ordering::Relaxed),
            "killed process leaked its stack-held state ({} executor)",
            sim.executor_kind().name()
        );
        assert!(sim.handle().is_done(victim));
    }
}

/// A panicking process must surface the same `ProcessPanicked` error —
/// same process name, same rendered payload — on both backends.
#[test]
fn panic_reporting_identical_across_executors() {
    let _serial = THREADS.lock();
    let errs: Vec<SimError> = [DesConfig::pooled(), DesConfig::threaded()]
        .into_iter()
        .map(|cfg| {
            let mut sim = Sim::with_config(2, cfg);
            sim.spawn("bomb", |p| {
                p.sleep(time::ms(3));
                panic!("exploded at step {}", 41 + 1);
            });
            sim.run().expect_err("panic must fail the run")
        })
        .collect();
    assert_eq!(errs[0], errs[1], "panic reports differ across executors");
    match &errs[0] {
        SimError::ProcessPanicked { name, message } => {
            assert_eq!(name, "bomb");
            assert!(message.contains("exploded at step 42"), "payload lost: {message}");
        }
        other => panic!("expected ProcessPanicked, got {other:?}"),
    }
}

/// Pooled slices run on the thread that drives the simulation, so a
/// killed task unwinds on that thread. The kill-unwind TLS flag it sets
/// must not leak into the next task that thread hosts (a stale flag
/// would silently swallow the next real panic's output), nor into the
/// driving code once `run` returns. Checkers run strictly after a batch
/// of kill-unwinds on the same thread.
#[test]
fn kill_flag_does_not_leak_into_next_task_on_calling_thread() {
    let _serial = THREADS.lock();
    let mut sim = Sim::with_config(3, DesConfig::pooled());
    for i in 0..8u64 {
        let victim = sim.spawn(format!("victim{i}"), |p| loop {
            p.park();
        });
        sim.handle().call_at(time::ms(1 + i), move |h| h.kill(victim));
    }
    let stale = Arc::new(AtomicU64::new(0));
    let stale2 = stale.clone();
    sim.handle().call_at(time::ms(50), move |h| {
        for i in 0..8u64 {
            let stale = stale2.clone();
            h.spawn(format!("checker{i}"), move |p| {
                if gbcr_des::kill_unwind_flag_set() {
                    stale.fetch_add(1, Ordering::Relaxed);
                }
                p.sleep(time::ms(1));
            });
        }
    });
    sim.run().expect("kill-then-check completes");
    assert_eq!(stale.load(Ordering::Relaxed), 0, "stale kill-unwind TLS in a later slice");
    assert!(
        !gbcr_des::kill_unwind_flag_set(),
        "kill-unwind TLS leaked into the thread that ran the simulation"
    );
}

/// The headline capability: 10 000 simultaneously-live processes with no
/// executor threads at all. The threaded backend cannot run this (10k OS
/// threads); pooled runs every slice on the thread calling `run`.
/// Asserts the executor telemetry, that every slice ran on this test's
/// thread, and that the process's OS-thread count does not grow across
/// the run — sampled again mid-run, while all 10k processes are live.
#[test]
fn ten_thousand_procs_spawn_park_finish_on_bounded_pool() {
    let _serial = THREADS.lock();
    let mut sim = Sim::with_config(11, DesConfig::pooled());
    if sim.executor_kind() != ExecKind::Pooled {
        // Architecture without a coroutine switch: nothing to test.
        return;
    }
    const N: u64 = 10_000;
    let me = std::thread::current().id();
    let done = Arc::new(AtomicU64::new(0));
    let foreign = Arc::new(AtomicU64::new(0));
    for i in 0..N {
        let (done, foreign) = (done.clone(), foreign.clone());
        sim.spawn(format!("rank{i}"), move |p| {
            p.sleep(time::ms(1 + (i % 16)));
            if std::thread::current().id() != me {
                foreign.fetch_add(1, Ordering::Relaxed);
            }
            done.fetch_add(1, Ordering::Relaxed);
        });
    }
    let mid_run = Arc::new(AtomicU64::new(0));
    let mid_run2 = mid_run.clone();
    sim.handle().call_at(time::us(500), move |_| {
        mid_run2.store(os_thread_count(), Ordering::Relaxed);
    });
    let before = os_thread_count();
    let end = sim.run().expect("10k-proc smoke completes");
    let after = os_thread_count();
    assert_eq!(end, time::ms(16));
    assert_eq!(done.load(Ordering::Relaxed), N);
    assert_eq!(foreign.load(Ordering::Relaxed), 0, "slices ran off the calling thread");
    assert_eq!(sim.procs_spawned(), N);
    assert_eq!(sim.peak_live_procs(), N, "all ranks live at once mid-run");
    assert_eq!(sim.exec_threads(), 1, "pooled slices run on the calling thread");
    assert!(sim.spawn_cost_ns() > 0);
    let mid_run = mid_run.load(Ordering::Relaxed);
    assert!(
        mid_run <= before && after <= before,
        "OS threads grew across the 10k-proc run: {before} before, {mid_run} mid-run, \
         {after} after"
    );
    sim.shutdown();
}

/// Live OS threads of this test process, from /proc (Linux only; the
/// tests target the Linux CI environment).
fn os_thread_count() -> u64 {
    let status = match std::fs::read_to_string("/proc/self/status") {
        Ok(s) => s,
        Err(_) => return 1, // non-procfs platform: don't fail the assert
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1)
}

/// Teardown of unfinished processes (explicit `shutdown` or drop) must
/// work identically on both backends, and its cost must be recorded.
#[test]
fn shutdown_kills_parked_and_unstarted_procs_on_both_executors() {
    let _serial = THREADS.lock();
    for cfg in [DesConfig::pooled(), DesConfig::threaded()] {
        let mut sim = Sim::with_config(4, cfg);
        let kind = sim.executor_kind();
        // Parked forever: must be kill-unwound by shutdown.
        sim.spawn("parked", |p| loop {
            p.park();
        });
        let _ = sim.run(); // deadlock error — the proc is parked forever
        // Never resumed at all (spawned after the run drained the queue).
        let unstarted = sim.spawn("unstarted", |p| p.sleep(time::ms(1)));
        sim.shutdown();
        assert!(sim.handle().is_done(unstarted), "shutdown left a process live");
        assert!(
            sim.teardown_cost_ns() > 0,
            "teardown cost not recorded ({} executor)",
            kind.name()
        );
    }
}

/// A simulated process may build and run a whole pooled simulation of
/// its own: the nested `Sim` resumes its processes inline on the outer
/// process's coroutine stack, and reaches the same end time and event
/// count as when it runs at top level.
#[test]
fn nested_pooled_sim_runs_inside_a_simulated_process() {
    let _serial = THREADS.lock();
    let top = run_inner_workload();
    let nested: Arc<Mutex<Option<(u64, u64)>>> = Arc::new(Mutex::new(None));
    let nested2 = nested.clone();
    let mut outer = Sim::with_config(6, DesConfig::pooled());
    outer.spawn("host", move |p| {
        p.sleep(time::ms(2));
        *nested2.lock() = Some(run_inner_workload());
        p.sleep(time::ms(1));
    });
    outer.spawn("bystander", |p| p.sleep(time::ms(5)));
    let end = outer.run().expect("outer simulation completes");
    assert_eq!(end, time::ms(5));
    assert_eq!(*nested.lock(), Some(top), "nested run diverged from top-level run");
}

/// The simulation run at top level and nested: sleeps, a signal, a
/// mid-run spawn, and a kill. Returns `(end time, events dispatched)`.
fn run_inner_workload() -> (u64, u64) {
    let mut sim = Sim::with_config(5, DesConfig::pooled());
    let sig = sim.signal("go");
    for i in 0..4u64 {
        let sig = sig.clone();
        sim.spawn(format!("w{i}"), move |p| {
            p.sleep(time::ms(1 + i));
            sig.wait(p);
            p.sleep(time::ms(i));
        });
    }
    sim.spawn("notifier", move |p| {
        p.sleep(time::ms(6));
        p.handle().spawn("late", |c| c.sleep(time::ms(2)));
        sig.notify_all(p);
    });
    let victim = sim.spawn("victim", |p| loop {
        p.sleep(time::ms(1));
    });
    sim.handle().call_at(time::ms(4), move |h| h.kill(victim));
    let end = sim.run().expect("inner simulation completes");
    (end, sim.events_processed())
}

/// A `Sim` dropped while its driving thread is unwinding from a panic
/// still tears its processes down inline: the parked process's kill
/// unwind is caught on its own coroutine stack, its destructors run, and
/// the original panic reaches the caller intact.
#[test]
fn sim_dropped_during_unwind_tears_down_parked_procs() {
    let _serial = THREADS.lock();
    struct Sentinel(Arc<AtomicBool>);
    impl Drop for Sentinel {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let dropped = Arc::new(AtomicBool::new(false));
    let sentinel = Sentinel(dropped.clone());
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut sim = Sim::with_config(8, DesConfig::pooled());
        sim.spawn("parked", move |p| {
            let _held = &sentinel;
            loop {
                p.park();
            }
        });
        let _ = sim.run(); // deadlock: the process parks forever
        panic!("driver failed with a live simulation");
    }));
    let payload = caught.expect_err("driver panic propagates");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"driver failed with a live simulation"));
    assert!(dropped.load(Ordering::Relaxed), "parked process not torn down");
    assert!(!gbcr_des::kill_unwind_flag_set(), "kill-unwind TLS leaked");
}

#[test]
fn double_resume_error_is_typed_and_displayed() {
    let _serial = THREADS.lock();
    let err = SimError::DoubleResume { name: "rank3".into() };
    assert_eq!(err.to_string(), "scheduler resumed already-running process 'rank3'");
    assert_eq!(err, SimError::DoubleResume { name: "rank3".into() });
}

/// `DesConfig`/env resolution: explicit configs are honored and the
/// process-wide default override beats everything.
#[test]
fn explicit_config_selects_backend() {
    let _serial = THREADS.lock();
    let sim = Sim::with_config(0, DesConfig::threaded());
    assert_eq!(sim.executor_kind(), ExecKind::Threaded);
    let sim = Sim::with_config(0, DesConfig::pooled());
    // On x86_64 this is Pooled; elsewhere it clamps to Threaded.
    let expect = if cfg!(target_arch = "x86_64") { ExecKind::Pooled } else { ExecKind::Threaded };
    assert_eq!(sim.executor_kind(), expect);
}
