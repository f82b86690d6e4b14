//! Petascale scale study: group-based vs whole-cluster checkpointing from
//! 256 to 10 240 ranks.
//!
//! The paper demonstrates its central claim — group-based checkpointing's
//! advantage grows with job size — only up to the 32–128 ranks a
//! thread-per-rank engine could afford. The pooled coroutine executor
//! (see `gbcr-des`) lifts that ceiling: every rank is a coroutine resumed
//! inline on the thread running its simulation, so this module
//! sweeps the same fixed-footprint micro-benchmark out to the
//! petascale-study regime of Cao et al. Each sweep point also records
//! simulator-cost telemetry (wall time, events, spawn cost, peak OS
//! threads) so the executor's scaling shows up in BENCH_harness.json next
//! to the model outputs.

use crate::static_cfg;
use gbcr_des::time;
use gbcr_metrics::{run_sweep, SweepGroup, Table};
use gbcr_storage::MB;
use gbcr_workloads::MicroBench;
use std::time::Instant;

/// The full sweep: up through the 10k+ regime.
pub const SIZES_FULL: [u32; 4] = [256, 1024, 4096, 10_240];

/// Tier-1 smoke sizes (wall-clock budgeted in CI).
pub const SIZES_SMOKE: [u32; 2] = [256, 1024];

/// One job size of the scale sweep: the model outputs (effective delays)
/// plus the simulator-cost telemetry for that size's three runs
/// (baseline, whole-cluster, group-based).
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// World size.
    pub ranks: u32,
    /// Whole-cluster (`All(n)`) effective checkpoint delay, seconds.
    pub eff_all: f64,
    /// Group-based (g=8) effective checkpoint delay, seconds.
    pub eff_group: f64,
    /// Wall milliseconds for this size's three runs.
    pub wall_ms: f64,
    /// Simulated events dispatched across the three runs.
    pub events: u64,
    /// Progress wakes elided across the three runs.
    pub elided_wakes: u64,
    /// Simulated processes spawned across the three runs.
    pub procs_spawned: u64,
    /// Peak OS threads any single run used for process execution (1
    /// under the pooled executor: the thread running the simulation).
    pub peak_live_threads: u64,
    /// Which executor backend ran the processes.
    pub executor: &'static str,
    /// Wall milliseconds spent spawning processes, summed over the runs.
    pub spawn_ms: f64,
}

impl ScaleCell {
    /// Delay reduction of group-based over whole-cluster, in `[0, 1]`.
    pub fn reduction(&self) -> f64 {
        1.0 - self.eff_group / self.eff_all
    }
}

/// The sweep workload: the paper's §6.1 micro-benchmark shape
/// (communication groups of eight, 180 MB/process) with a step count
/// short enough that a 10k-rank run stays tier-2 affordable.
pub fn workload(n: u32) -> MicroBench {
    MicroBench {
        n,
        comm_group_size: 8,
        footprint: 180 * MB,
        steps: 40,
        step_compute: time::ms(500),
        ..Default::default()
    }
}

/// Run the sweep: per size, one baseline plus whole-cluster and
/// group-based checkpointed runs. Sizes are run one at a time (not one
/// big fan-out) so each gets its own wall-clock attribution.
pub fn run(sizes: &[u32], threads: Option<usize>) -> Vec<ScaleCell> {
    sizes
        .iter()
        .map(|&n| {
            let mb = workload(n);
            let group = SweepGroup::labeled(
                mb.job(),
                vec![static_cfg("micro", n, time::secs(5)), static_cfg("micro", 8, time::secs(5))],
                format!("scale/n{n}"),
            );
            let t0 = Instant::now();
            let gr = run_sweep(std::slice::from_ref(&group), threads)
                .expect("scale study runs")
                .pop()
                .expect("one group");
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let eff = |i: usize| {
                time::as_secs_f64(gr.runs[i].completion.saturating_sub(gr.baseline.completion))
            };
            let all = std::iter::once(&gr.baseline).chain(&gr.runs);
            let mut events = 0;
            let mut elided_wakes = 0;
            let mut procs_spawned = 0;
            let mut peak_live_threads = 0;
            let mut spawn_ns = 0;
            for r in all {
                events += r.events;
                elided_wakes += r.elided_wakes;
                procs_spawned += r.procs_spawned;
                peak_live_threads = peak_live_threads.max(r.exec_threads);
                spawn_ns += r.spawn_cost_ns.0;
            }
            ScaleCell {
                ranks: n,
                eff_all: eff(0),
                eff_group: eff(1),
                wall_ms,
                events,
                elided_wakes,
                procs_spawned,
                peak_live_threads,
                executor: gr.baseline.executor.name(),
                spawn_ms: spawn_ns as f64 / 1e6,
            }
        })
        .collect()
}

/// The model-output table (the delays the paper's claim is about).
/// Deterministic — byte-identical across executors, thread counts and
/// progress modes.
pub fn table(cells: &[ScaleCell]) -> Table {
    let mut t = Table::new(
        "Scale study — effective delay (s) vs job size (180 MB/proc, 140 MB/s storage)",
        &["ranks", "regular All(n)", "group-based g=8", "reduction"],
    );
    for c in cells {
        t.row(&[
            c.ranks.to_string(),
            format!("{:.1}", c.eff_all),
            format!("{:.1}", c.eff_group),
            format!("{:.0}%", c.reduction() * 100.0),
        ]);
    }
    t
}

/// The simulator-cost table (wall time, events, executor telemetry).
/// *Not* deterministic — never part of the byte-identity checks.
pub fn cost_table(cells: &[ScaleCell]) -> Table {
    let mut t = Table::new(
        "Scale study — simulator cost per job size (3 runs each)",
        &["ranks", "wall ms", "events", "procs", "peak exec threads", "spawn ms", "executor"],
    );
    for c in cells {
        t.row(&[
            c.ranks.to_string(),
            format!("{:.0}", c.wall_ms),
            c.events.to_string(),
            c.procs_spawned.to_string(),
            c.peak_live_threads.to_string(),
            format!("{:.1}", c.spawn_ms),
            c.executor.to_owned(),
        ]);
    }
    t
}

/// The `scale` block for BENCH_harness.json.
pub fn json_block(cells: &[ScaleCell]) -> String {
    let mut j = String::from("[\n");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        j.push_str(&format!(
            "    {{\"ranks\": {}, \"wall_ms\": {:.1}, \"events\": {}, \
             \"elided_wakes\": {}, \"procs_spawned\": {}, \
             \"peak_live_threads\": {}, \"spawn_ms\": {:.1}, \
             \"executor\": \"{}\", \"eff_all_s\": {:.1}, \"eff_group_s\": {:.1}}}{comma}\n",
            c.ranks,
            c.wall_ms,
            c.events,
            c.elided_wakes,
            c.procs_spawned,
            c.peak_live_threads,
            c.spawn_ms,
            c.executor,
            c.eff_all,
            c.eff_group,
        ));
    }
    j.push_str("  ]");
    j
}
