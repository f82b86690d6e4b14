//! Host-side measurements: process CPU time and peak resident set
//! (`getrusage`), and the environment stamp printed with every result.

use std::process::{Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// (`ru_maxrss` first, in KiB).
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// `cpu_set_t`: 1024 CPU bits.
const CPU_SET_BYTES: usize = 128;

/// Pin the calling thread, and every thread it starts later, to the
/// highest-numbered CPU it may run on, and return that CPU (`None` if the
/// affinity calls fail; the process then runs unpinned). Call before any
/// thread starts.
///
/// The serial simulator runs one thread at a time: the scheduler thread
/// hands each process slice to the executor pool thread and waits for it.
/// Unpinned, the kernel sometimes keeps the two threads on one CPU and
/// sometimes not, for a whole process: a `recovery` pass took 5 s in one
/// process and 13 s in the next on the same host. Pinned, every handoff is
/// a same-CPU switch, the cheapest the handoff design allows.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is a writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_BYTES * 8)
        .rev()
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)?;
    let mut one = [0u8; CPU_SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of the size passed.
    (unsafe { sched_setaffinity(0, CPU_SET_BYTES, one.as_ptr()) } == 0).then_some(cpu)
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> RUsage {
    let mut u = RUsage::default();
    // SAFETY: `u` is a properly sized and aligned `struct rusage`, and
    // getrusage only writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    u
}

/// User + system CPU seconds this process has used so far (all threads).
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    let secs = |t: TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(u.utime) + secs(u.stime)
}

/// Peak resident set of this process so far, MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    rusage().longs[0] as f64 * 1024.0 / 1e6
}

/// The fields every result carries so it can be compared with others:
/// host cores, the CPU the run is pinned to, executor and scheduler kind,
/// shard count, executor pool size, sweep workers, git revision,
/// compiler, and the host-speed calibration.
pub struct EnvStamp {
    pub host_cores: usize,
    pub pinned_cpu: Option<usize>,
    pub executor: &'static str,
    pub sched: &'static str,
    pub shards: usize,
    pub pool_threads: usize,
    pub sweep_threads: usize,
    pub git_rev: String,
    pub rustc: &'static str,
    pub calibration: Calibration,
}

impl EnvStamp {
    /// Collect the stamp and measure the calibration. Starts the executor
    /// pool if it is not running.
    /// `host_cores` is read before pinning.
    pub fn collect(host_cores: usize, pinned_cpu: Option<usize>, sweep_threads: usize) -> Self {
        EnvStamp {
            host_cores,
            pinned_cpu,
            executor: gbcr_des::executor_default().name(),
            sched: gbcr_des::sched_default().name(),
            shards: gbcr_des::shard_count_default(),
            pool_threads: gbcr_des::pool_threads(),
            sweep_threads,
            git_rev: git_rev(),
            rustc: env!("PERFBENCH_RUSTC"),
            calibration: Calibration::measure(),
        }
    }

    /// One `key=value` line.
    pub fn line(&self) -> String {
        format!(
            "host_cores={} pinned_cpu={} executor={} sched={} shards={} pool_threads={} \
             sweep_threads={} git_rev={} rustc=\"{}\" calib_cpu_ms={:.2} calib_switch_us={:.2}",
            self.host_cores,
            self.pinned_cpu.map_or("none".into(), |c| c.to_string()),
            self.executor,
            self.sched,
            self.shards,
            self.pool_threads,
            self.sweep_threads,
            self.git_rev,
            self.rustc,
            self.calibration.cpu_ms,
            self.calibration.switch_us
        )
    }
}

/// The revision of the source tree, or `unknown` outside a git checkout.
fn git_rev() -> String {
    // An explicit --git-dir: no search of directories above the tree.
    let git_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    Command::new("git")
        .args(["--git-dir", git_dir, "rev-parse", "--short=12", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Host speed at the time of a run, from two fixed pieces of host work
/// that involve no simulator code. A shift of the benchmark's timings
/// between sets of runs that these figures share is host drift, not a
/// change of the program.
pub struct Calibration {
    /// Milliseconds for a fixed integer-hash loop (median of 5).
    pub cpu_ms: f64,
    /// Microseconds per round trip of a mutex + condvar ping-pong between
    /// two threads on the pinned CPU, the kind of handoff the serial
    /// simulator makes for every process slice (median of 5).
    pub switch_us: f64,
}

impl Calibration {
    pub fn measure() -> Self {
        let med = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        Calibration {
            cpu_ms: med((0..5).map(|_| cpu_loop_ms()).collect()),
            switch_us: med((0..5).map(|_| ping_pong_us()).collect()),
        }
    }
}

fn cpu_loop_ms() -> f64 {
    let t = Instant::now();
    let mut z = 0u64;
    for i in 0..20_000_000u64 {
        z = (z ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    }
    std::hint::black_box(z);
    t.elapsed().as_secs_f64() * 1e3
}

fn ping_pong_us() -> f64 {
    const ROUNDS: u64 = 2_000;
    // The turn counter: even = the main thread's turn, odd = the peer's.
    let shared = Arc::new((Mutex::new(0u64), Condvar::new()));
    let peer = {
        let shared = shared.clone();
        std::thread::spawn(move || {
            let (m, cv) = &*shared;
            for r in 0..ROUNDS {
                let mut turn = m.lock().unwrap();
                while *turn != 2 * r + 1 {
                    turn = cv.wait(turn).unwrap();
                }
                *turn += 1;
                cv.notify_one();
            }
        })
    };
    let (m, cv) = &*shared;
    let t = Instant::now();
    for r in 0..ROUNDS {
        let mut turn = m.lock().unwrap();
        *turn += 1;
        cv.notify_one();
        while *turn != 2 * r + 2 {
            turn = cv.wait(turn).unwrap();
        }
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
    peer.join().expect("ping-pong peer panicked");
    us
}
