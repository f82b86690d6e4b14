//! Per-layer quantities read from the simulator's own reports (the
//! deterministic counters every `RunReport` / `SupervisedReport` carries)
//! and from the traced pass.

use crate::workload::{OpKind, Outcome, Plan};
use gbcr_core::{extract_images, extract_images_manifested, RestartSpec, RunReport};
use gbcr_des::{Event, TraceLevel};
use gbcr_faults::FaultConfig;
use std::time::Instant;

/// A named value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Counters summed over one pass's outcomes. Job runs contribute their
/// report; supervised runs contribute their final attempt's report for the
/// des/net/storage/mpi fields, and their across-attempt counters for
/// replicas, recoveries, manifests, epochs, attempts and failures.
pub fn report_counters(outcomes: &[Outcome]) -> Vec<Metric> {
    #[derive(Default)]
    struct Acc {
        events: u64,
        elided: u64,
        spawned: u64,
        peak_live: u64,
        spawn_ns: u64,
        teardown_ns: u64,
        messages: u64,
        net_bytes: u64,
        connects: u64,
        teardowns: u64,
        transfers: u64,
        storage_bytes: u64,
        peak_streams: u64,
        replicas_written: u64,
        remote: u64,
        local: u64,
        msg_buffered: u64,
        req_buffered: u64,
        released: u64,
        epochs: u64,
        manifests: u64,
        attempts: u64,
        failures: u64,
    }
    let mut a = Acc::default();
    let layers = |a: &mut Acc, r: &RunReport| {
        a.events += r.events;
        a.elided += r.elided_wakes;
        a.spawned += r.procs_spawned;
        a.peak_live = a.peak_live.max(r.peak_live_procs);
        a.spawn_ns += r.spawn_cost_ns.0;
        a.teardown_ns += r.teardown_cost_ns.0;
        a.messages += r.net_stats.messages;
        a.net_bytes += r.net_stats.bytes;
        a.connects += r.net_stats.connects;
        a.teardowns += r.net_stats.teardowns;
        a.transfers += r.storage_stats.records.len() as u64;
        a.storage_bytes += r.storage_stats.total_bytes();
        a.peak_streams = a
            .peak_streams
            .max(r.storage_stats.peak_concurrent_streams());
        a.msg_buffered += r.defer_stats.msg_buffered;
        a.req_buffered += r.defer_stats.req_buffered;
        a.released += r.defer_stats.released;
    };
    for o in outcomes {
        match o {
            Outcome::Job(r) => {
                layers(&mut a, r);
                a.replicas_written += r.replicas_written;
                a.remote += r.remote_recoveries;
                a.local += r.local_recoveries;
                a.epochs += r.epochs.len() as u64;
                a.manifests += r.manifest_commits;
                a.attempts += 1;
            }
            Outcome::Supervised(s) => {
                layers(&mut a, &s.final_report);
                a.replicas_written += s.counters.replicas_written;
                a.remote += s.counters.remote_recoveries;
                a.local += s.counters.local_recoveries;
                a.epochs += s
                    .attempts
                    .iter()
                    .map(|t| t.epochs_completed as u64)
                    .sum::<u64>();
                a.manifests += s.counters.manifest_commits;
                a.attempts += s.attempts.len() as u64;
                a.failures += s.failures_survived() as u64;
            }
            Outcome::GaveUp { attempts } => {
                a.attempts += *attempts as u64;
                a.failures += *attempts as u64;
            }
            Outcome::Error(_) => {}
        }
    }
    let c = |v: u64| v as f64;
    vec![
        ("des.events", c(a.events), "count"),
        ("des.elided_wakes", c(a.elided), "count"),
        ("des.procs_spawned", c(a.spawned), "count"),
        ("des.peak_live_procs", c(a.peak_live), "count"),
        ("des.spawn_ms", a.spawn_ns as f64 / 1e6, "ms"),
        ("des.teardown_ms", a.teardown_ns as f64 / 1e6, "ms"),
        ("net.messages", c(a.messages), "count"),
        ("net.bytes", c(a.net_bytes), "B"),
        ("net.connects", c(a.connects), "count"),
        ("net.teardowns", c(a.teardowns), "count"),
        ("storage.transfers", c(a.transfers), "count"),
        ("storage.bytes", c(a.storage_bytes), "B"),
        ("storage.peak_streams", c(a.peak_streams), "count"),
        ("storage.replicas_written", c(a.replicas_written), "count"),
        ("storage.remote_recoveries", c(a.remote), "count"),
        ("storage.local_recoveries", c(a.local), "count"),
        ("mpi.msg_buffered", c(a.msg_buffered), "count"),
        ("mpi.req_buffered", c(a.req_buffered), "count"),
        ("mpi.released", c(a.released), "count"),
        ("core.epochs", c(a.epochs), "count"),
        ("core.manifest_commits", c(a.manifests), "count"),
        ("core.attempts", c(a.attempts), "count"),
        ("core.failures", c(a.failures), "count"),
    ]
}

/// Median and tail of per-run host wall milliseconds. The tail is the
/// highest percentile with at least ten runs above it; with eleven runs or
/// fewer it is the slowest run. Returns `(p50, tail, tail label)`.
pub fn run_ms(mut v: Vec<f64>) -> (f64, f64, String) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p50 = v[n / 2];
    if n > 11 {
        let i = n - 11;
        (
            p50,
            v[i],
            format!("p{:.1}", 100.0 * (i + 1) as f64 / n as f64),
        )
    } else {
        (p50, v[n - 1], "max".into())
    }
}

/// What the traced pass measured.
pub struct Traced {
    /// The trace level that ran.
    pub level: TraceLevel,
    /// What was traced, in words.
    pub scope: String,
    /// `SchedWake` / `SchedTimer` / `SchedCall` instants.
    pub wakes: u64,
    pub timers: u64,
    pub calls: u64,
    /// Recorded spans.
    pub spans: u64,
    /// Traced wall ÷ untraced wall of the same work.
    pub overhead: f64,
    /// Operations run for the traced measurement.
    pub ops: u64,
    /// Operations whose traced output differed from the untraced one, or
    /// that failed outright.
    pub failed: Vec<(String, String)>,
}

/// Count the dispatch instants and spans of one traced report, then drop
/// the trace so a traced pass holds one run's trace at a time.
fn absorb_trace(t: &mut Traced, r: &mut RunReport) {
    if let Some(data) = r.trace.take() {
        for i in &data.instants {
            match i.event {
                Event::SchedWake { .. } => t.wakes += 1,
                Event::SchedTimer { .. } => t.timers += 1,
                Event::SchedCall => t.calls += 1,
                _ => {}
            }
        }
        t.spans += data.spans.len() as u64;
    }
}

/// The level every traced measurement runs at. `Full` records the
/// scheduler's dispatch instants; it fits every workload (the 1024-rank
/// traced pass peaks near 210 MB), so no workload falls back to `Phases`.
const LEVEL: TraceLevel = TraceLevel::Full;

impl Traced {
    fn new(scope: String) -> Self {
        Traced {
            level: LEVEL,
            scope,
            wakes: 0,
            timers: 0,
            calls: 0,
            spans: 0,
            overhead: 0.0,
            ops: 0,
            failed: Vec::new(),
        }
    }
}

/// The traced pass of a job-run workload (`paper`): every
/// operation again at the workload's trace level. Its digests and tables
/// must equal the untraced pass's byte for byte.
pub fn traced_pass(
    plan: &Plan,
    untraced_digests: &[String],
    untraced_wall: f64,
    untraced_tables: &str,
) -> Traced {
    let mut t = Traced::new(format!("every operation of one pass ({})", plan.ops.len()));
    t.ops = plan.ops.len() as u64;
    let mut outcomes = Vec::with_capacity(plan.ops.len());
    let t0 = Instant::now();
    for i in 0..plan.ops.len() {
        let mut o = plan.run_op(i, Some(LEVEL));
        if let Outcome::Job(r) = &mut o {
            absorb_trace(&mut t, r);
        }
        outcomes.push(o);
    }
    t.overhead = t0.elapsed().as_secs_f64() / untraced_wall;
    for ((op, o), want) in plan.ops.iter().zip(&outcomes).zip(untraced_digests) {
        let got = o.digest();
        if &got != want {
            t.failed.push((
                op.key.clone(),
                format!("traced `{got}` != untraced `{want}`"),
            ));
        }
    }
    match plan.render(&outcomes) {
        Ok(text) if text == untraced_tables => {}
        Ok(_) => t
            .failed
            .push(("tables".into(), "traced tables differ from untraced".into())),
        Err(e) => t.failed.push(("tables".into(), e)),
    }
    t
}

/// The restart point a supervisor would pick after `report` crashed.
fn restart_point(report: &RunReport, job: &str, n: u32) -> Result<Option<RestartSpec>, String> {
    let picked = if report.has_manifests(job) {
        report
            .last_manifested_epoch(job, n)
            .map(|e| extract_images_manifested(report, job, e, n).map(|i| (e, i)))
    } else {
        report
            .last_complete_epoch(job, n)
            .map(|e| extract_images(report, job, e, n).map(|i| (e, i)))
    };
    match picked {
        None => Ok(None),
        Some(Err(e)) => Err(e.to_string()),
        Some(Ok((epoch, images))) => Ok(Some(RestartSpec {
            job: job.to_owned(),
            epoch,
            images,
            lost_nodes: report.killed_ranks.clone(),
        })),
    }
}

/// The traced measurement of `recovery`. The supervised runner has no
/// trace hook, so this replays one representative supervised run by hand
/// through the public runner: attempt 0 (killed), then attempt 1 restarted
/// from attempt 0's last committed epoch — the restart storm that reads
/// replicas back — once untraced and once traced. The two runs of attempt 1
/// must agree byte for byte, and both attempts must match the attempts the
/// supervised run in the untraced pass reported.
pub fn traced_recovery(plan: &Plan, untraced: &[Outcome]) -> Traced {
    // The first supervised run (canonical order) whose attempt 1 restored
    // from a checkpoint.
    let restarted = untraced.iter().position(|o| match o {
        Outcome::Supervised(s) => s.attempts.get(1).is_some_and(|a| a.restored_from.is_some()),
        _ => false,
    });
    let Some(i) = restarted else {
        let mut t = Traced::new("nothing: no supervised run restarted".into());
        t.failed.push((
            "recovery/attempt".into(),
            "no supervised run restarted from a checkpoint".into(),
        ));
        return t;
    };
    let key = plan.ops[i].key.clone();
    let mut t = Traced::new(format!(
        "attempt 1 of supervised run {key} (restart from attempt 0's last epoch)"
    ));
    let OpKind::Supervised { cfg, faults, .. } = &plan.ops[i].kind else {
        unreachable!("outcome {i} is a supervised run")
    };
    let spec = plan.spec(i);
    let n = spec.mpi.n;
    let fault_cfg = |attempt: u64| FaultConfig {
        plan: faults.attempt_plan(attempt, n).0,
        detect_latency: faults.detect_latency,
        torn: None,
        torn_manifests: None,
        phase_faults: Vec::new(),
    };
    let fail = |t: &mut Traced, why: String| t.failed.push((format!("{key}/attempt"), why));
    if faults.torn_write_prob > 0.0 || faults.torn_manifest_prob > 0.0 {
        fail(
            &mut t,
            "representative run has torn-write faults; replay unsupported".into(),
        );
        return t;
    }
    t.ops += 1;
    let a0 = match spec.runner().ckpt(cfg.clone()).faults(&fault_cfg(0)).run() {
        Ok(r) => r,
        Err(e) => {
            fail(&mut t, format!("attempt 0: {e}"));
            return t;
        }
    };
    let restart = match restart_point(&a0, &cfg.job, n) {
        Ok(Some(r)) => r,
        Ok(None) => {
            fail(&mut t, "attempt 0 left no restart point".into());
            return t;
        }
        Err(e) => {
            fail(&mut t, e);
            return t;
        }
    };
    let attempt1 = |trace: Option<TraceLevel>| {
        let mut r = spec
            .runner()
            .ckpt(cfg.clone())
            .restart(restart.clone())
            .faults(&fault_cfg(1));
        if let Some(l) = trace {
            r = r.traced(l);
        }
        let t0 = Instant::now();
        let out = r.run();
        (out, t0.elapsed().as_secs_f64())
    };
    t.ops += 2;
    let (plain, plain_s) = attempt1(None);
    let (traced, traced_s) = attempt1(Some(LEVEL));
    match (plain, traced) {
        (Ok(p), Ok(mut tr)) => {
            absorb_trace(&mut t, &mut tr);
            t.overhead = traced_s / plain_s;
            // The replay must be the supervised run's own first two attempts.
            let p_wall = if p.finished_ranks == n {
                p.completion
            } else {
                p.sim_end
            };
            if let Outcome::Supervised(s) = &untraced[i] {
                let walls: Vec<_> = s.attempts.iter().map(|a| a.wall).collect();
                if walls[0] != a0.sim_end || walls[1] != p_wall {
                    fail(
                        &mut t,
                        format!(
                            "replayed attempt walls differ from the supervised run's {walls:?}"
                        ),
                    );
                }
                if s.attempts[1].restored_from != Some(restart.epoch) {
                    fail(&mut t, "attempt 1 replay restores another epoch".into());
                }
            }
            let (pd, td) = (Outcome::Job(p).digest(), Outcome::Job(tr).digest());
            if pd != td {
                fail(&mut t, format!("traced `{td}` != untraced `{pd}`"));
            }
        }
        (Err(e), _) | (_, Err(e)) => fail(&mut t, format!("attempt 1: {e}")),
    }
    t
}
