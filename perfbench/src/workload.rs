//! The benchmark's workloads, the operations each pass issues, and
//! the checks of their model outputs against the committed goldens.
//!
//! One operation is one simulation run: a job run through
//! [`gbcr_core::JobSpec::runner`] or a supervised stochastic-kill run
//! through [`gbcr_core::SupervisedRunner::stochastic`]. Every operation is
//! an independent deterministic simulation; a pass issues them in
//! canonical (figure) order.

use crate::golden::{self, Golden};
use gbcr_bench::{fig5, fig7, fig8, static_cfg, Cell, Sweep, GROUP_SIZES};
use gbcr_core::{
    CkptMode, CkptSchedule, CoordinatorCfg, Formation, JobSpec, PhaseDeadlines, RunReport,
    StoreBackend, SupervisePolicy, SupervisedReport,
};
use gbcr_des::{time, SimError, Time, TraceLevel};
use gbcr_faults::{rng::mix64, StochasticFaults};
use gbcr_metrics::{delay_from_reports, sum_counters, FaultAccounting};
use gbcr_workloads::{HplWorkload, MotifMinerWorkload, RandomTraffic};
use std::time::Instant;

/// The workloads, by the names the command line and `BENCHMARK.json` use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 5 (HPL) and Fig. 7 (MotifMiner) at 32 ranks: 74 job runs.
    Paper,
    /// The fig8 sweep on the replicated backend: 2 job runs plus 60
    /// supervised stochastic-kill runs.
    Recovery,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Paper, Workload::Recovery];

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The command-line / JSON name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Recovery => "recovery",
        }
    }
}

/// Full size (the benchmark) or the reduced size the self-test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Every operation of the workload.
    Full,
    /// A subset of the operations, checked cell by cell.
    Reduced,
}

/// What one operation runs.
pub enum OpKind {
    /// One job run of `specs[spec]`; `None` is the bare baseline.
    Job {
        spec: usize,
        cfg: Option<CoordinatorCfg>,
    },
    /// One supervised run under a stochastic fail-stop process.
    Supervised {
        spec: usize,
        cfg: CoordinatorCfg,
        faults: StochasticFaults,
    },
}

/// One operation with its golden key.
pub struct Op {
    /// Stable name; the key of the operation's golden line.
    pub key: String,
    /// What to run.
    pub kind: OpKind,
}

/// The model output of one operation.
pub enum Outcome {
    /// A finished job run.
    Job(RunReport),
    /// A supervised run that finished.
    Supervised(SupervisedReport),
    /// A supervised run that exhausted its attempt budget. A model output
    /// on `recovery`, not a failure.
    GaveUp { attempts: usize },
    /// An unexpected error: always a failed operation.
    Error(String),
}

impl Outcome {
    /// The operation's model output as one line. Virtual-time quantities
    /// only, in nanoseconds, so equal lines mean equal model outputs.
    pub fn digest(&self) -> String {
        match self {
            Outcome::Job(r) => {
                let epochs: Vec<String> = r
                    .epochs
                    .iter()
                    .map(|e| {
                        let indiv: Time = e.individuals.iter().map(|(_, t)| *t).sum();
                        format!("{}:{}:{}", e.epoch, e.total_time(), indiv)
                    })
                    .collect();
                format!(
                    "completion={} sim_end={} finished={} killed={:?} restore={} epochs=[{}]",
                    r.completion,
                    r.sim_end,
                    r.finished_ranks,
                    r.killed_ranks,
                    r.restore_done,
                    epochs.join(",")
                )
            }
            Outcome::Supervised(s) => {
                let restored: Vec<String> = s
                    .attempts
                    .iter()
                    .map(|a| a.restored_from.map_or("-".into(), |e| e.to_string()))
                    .collect();
                format!(
                    "wall={} backoff={} attempts={} restored=[{}] final_completion={}",
                    s.total_wall,
                    s.total_backoff,
                    s.attempts.len(),
                    restored.join(","),
                    s.final_report.completion
                )
            }
            Outcome::GaveUp { attempts } => format!("gave_up attempts={attempts}"),
            Outcome::Error(e) => format!("error {e}"),
        }
    }

    fn job(&self) -> Option<&RunReport> {
        match self {
            Outcome::Job(r) => Some(r),
            _ => None,
        }
    }
}

/// One fig5/fig7 sweep inside the `paper` workload.
struct PaperFig {
    spec: usize,
    points: Vec<u64>,
    sizes: Vec<u32>,
    /// Index of the baseline op; the `points × sizes` cells follow it.
    base: usize,
}

/// How to turn a pass's outcomes back into the figure tables.
enum Layout {
    Paper(Vec<PaperFig>),
    Recovery {
        n: u32,
        intervals_ms: Vec<u64>,
        mtbfs_s: Vec<u64>,
        replicas: usize,
    },
}

/// Everything a pass needs, built once per set-up.
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Full or reduced.
    pub size: Size,
    specs: Vec<JobSpec>,
    /// Operations in canonical (figure) order, the order a pass issues
    /// them in.
    pub ops: Vec<Op>,
    layout: Layout,
    /// The committed goldens.
    pub golden: Golden,
}

/// The fig8 coordinator configuration (static groups of `n/2`, buffering).
fn fig8_cfg(job: &str, n: u32, at: Vec<Time>) -> CoordinatorCfg {
    CoordinatorCfg {
        job: job.into(),
        mode: CkptMode::Buffering,
        formation: Formation::Static {
            group_size: (n / 2).max(1),
        },
        schedule: CkptSchedule { at },
        incremental: false,
        deadlines: PhaseDeadlines::none(),
        election: Default::default(),
    }
}

/// Checkpoints every `interval` strictly inside a bare run of `horizon`.
fn periodic(interval: Time, horizon: Time) -> Vec<Time> {
    (1..)
        .map(|k| interval * k)
        .take_while(|&t| t < horizon)
        .collect()
}

const FIG8_N: u32 = 8;
const FIG8_JOB: &str = "random-traffic";

/// The fig8 job on the replicated backend.
fn fig8_spec() -> JobSpec {
    let mut spec = RandomTraffic {
        n: FIG8_N,
        steps: 400,
        ..RandomTraffic::default()
    }
    .job(None);
    spec.backend = StoreBackend::Replicated { replicas: 2 };
    spec
}

/// The fault process of fig8 cell `(mtbf, replica)`; it ignores the
/// interval (common random numbers across interval rows).
fn fig8_faults(mtbf_s: u64, rep: usize) -> StochasticFaults {
    StochasticFaults::kills(
        fig8::SEED ^ mix64(mtbf_s) ^ mix64(rep as u64 + 1),
        time::secs(mtbf_s),
    )
}

/// The fig8 periodic checkpoint configuration for one interval.
fn fig8_periodic_cfg(interval_ms: u64, useful: Time) -> CoordinatorCfg {
    fig8_cfg(FIG8_JOB, FIG8_N, periodic(time::ms(interval_ms), useful))
}

impl Plan {
    /// Build the plan: specs, operations and goldens. The
    /// `recovery` plan runs the bare fig8 job here, because its checkpoint
    /// schedule is derived from the bare completion time; that run is the
    /// workload's warm-up. The other workloads warm up with one small run
    /// of their own kind.
    ///
    /// With `bless` only the golden tables are loaded (the per-operation
    /// golden is about to be written).
    pub fn setup(workload: Workload, size: Size, bless: bool) -> Result<Plan, String> {
        let golden = if bless {
            Golden::tables_only(workload)?
        } else {
            Golden::load(workload)?
        };
        let mut specs = Vec::new();
        let mut ops = Vec::new();
        let layout = match workload {
            Workload::Paper => {
                let (hpl_pts, mm_pts, sizes): (Vec<u64>, Vec<u64>, Vec<u32>) = match size {
                    Size::Full => (
                        fig5::POINTS.to_vec(),
                        fig7::POINTS.to_vec(),
                        GROUP_SIZES.to_vec(),
                    ),
                    Size::Reduced => (vec![50, 300], vec![30], vec![32, 4]),
                };
                specs.push(HplWorkload::default().job(None));
                specs.push(MotifMinerWorkload::default().job(None));
                let mut figs = Vec::new();
                for (spec, job, points) in [(0, "hpl", hpl_pts), (1, "motifminer", mm_pts)] {
                    let base = ops.len();
                    ops.push(Op {
                        key: format!("{job}/base"),
                        kind: OpKind::Job { spec, cfg: None },
                    });
                    for &at in &points {
                        for &g in &sizes {
                            ops.push(Op {
                                key: format!("{job}/at{at}/g{g}"),
                                kind: OpKind::Job {
                                    spec,
                                    cfg: Some(static_cfg(job, g, time::secs(at))),
                                },
                            });
                        }
                    }
                    figs.push(PaperFig {
                        spec,
                        points,
                        sizes: sizes.clone(),
                        base,
                    });
                }
                // Warm-up: the MotifMiner baseline.
                specs[1]
                    .runner()
                    .run()
                    .map_err(|e| format!("warm-up run failed: {e}"))?;
                Layout::Paper(figs)
            }
            Workload::Recovery => {
                let mtbfs_s = match size {
                    Size::Full => fig8::NODE_MTBFS_S.to_vec(),
                    Size::Reduced => vec![480],
                };
                let intervals_ms = fig8::INTERVALS_MS.to_vec();
                let replicas = fig8::REPLICAS;
                specs.push(fig8_spec());
                let useful = specs[0]
                    .runner()
                    .run()
                    .map_err(|e| format!("warm-up (bare fig8) run failed: {e}"))?
                    .completion;
                ops.push(Op {
                    key: "bare".into(),
                    kind: OpKind::Job { spec: 0, cfg: None },
                });
                let mut delta_cfg = fig8_cfg(FIG8_JOB, FIG8_N, Vec::new());
                delta_cfg.schedule = CkptSchedule::once(useful / 2);
                ops.push(Op {
                    key: "delta".into(),
                    kind: OpKind::Job {
                        spec: 0,
                        cfg: Some(delta_cfg),
                    },
                });
                for &ims in &intervals_ms {
                    for &m in &mtbfs_s {
                        for rep in 0..replicas {
                            ops.push(Op {
                                key: format!("i{ims}/m{m}/r{rep}"),
                                kind: OpKind::Supervised {
                                    spec: 0,
                                    cfg: fig8_periodic_cfg(ims, useful),
                                    faults: fig8_faults(m, rep),
                                },
                            });
                        }
                    }
                }
                Layout::Recovery {
                    n: FIG8_N,
                    intervals_ms,
                    mtbfs_s,
                    replicas,
                }
            }
        };
        Ok(Plan {
            workload,
            size,
            specs,
            ops,
            layout,
            golden,
        })
    }

    /// Run one operation, optionally traced.
    pub fn run_op(&self, i: usize, trace: Option<TraceLevel>) -> Outcome {
        match &self.ops[i].kind {
            OpKind::Job { spec, cfg } => {
                let mut r = self.specs[*spec].runner().ckpt_opt(cfg.clone());
                if let Some(level) = trace {
                    r = r.traced(level);
                }
                match r.run() {
                    Ok(rep) => Outcome::Job(rep),
                    Err(e) => Outcome::Error(e.to_string()),
                }
            }
            OpKind::Supervised { spec, cfg, faults } => {
                let run = self.specs[*spec]
                    .runner()
                    .ckpt(cfg.clone())
                    .supervised(SupervisePolicy::default())
                    .stochastic(faults);
                match run {
                    Ok(rep) => Outcome::Supervised(rep),
                    Err(SimError::RetriesExhausted { attempts }) => Outcome::GaveUp { attempts },
                    Err(e) => Outcome::Error(e.to_string()),
                }
            }
        }
    }

    /// The spec an operation runs (for the representative traced attempt).
    pub fn spec(&self, i: usize) -> &JobSpec {
        match &self.ops[i].kind {
            OpKind::Job { spec, .. } | OpKind::Supervised { spec, .. } => &self.specs[*spec],
        }
    }

    /// Render the workload's figure tables from a pass's outcomes (in
    /// canonical op order). Fails if an outcome the tables need is missing.
    pub fn render(&self, out: &[Outcome]) -> Result<String, String> {
        let job = |i: usize| {
            out[i]
                .job()
                .ok_or_else(|| format!("op {} has no job report", self.ops[i].key))
        };
        match &self.layout {
            Layout::Paper(figs) => {
                let mut blocks = Vec::new();
                for (k, f) in figs.iter().enumerate() {
                    let sw = paper_sweep(self.specs[f.spec].mpi.n, f, job)?;
                    let full = self.size == Size::Full;
                    if k == 0 {
                        blocks.push(fig5::table(&sw).render());
                        if full {
                            blocks.push(fig5::summary_table(&sw, golden::FIG6_TITLE).render());
                        }
                    } else {
                        blocks.push(fig7::table(&sw).render());
                        if full {
                            blocks.push(
                                fig5::summary_table(&sw, golden::FIG7_SUMMARY_TITLE).render(),
                            );
                        }
                    }
                }
                Ok(blocks.join("\n"))
            }
            Layout::Recovery {
                n,
                intervals_ms,
                mtbfs_s,
                replicas,
            } => {
                let bare = job(0)?;
                let useful = bare.completion;
                let delta = delay_from_reports(useful / 2, bare, job(1)?).effective_secs();
                let mut cells = Vec::new();
                let mut k = 2;
                for &ims in intervals_ms {
                    for &m in mtbfs_s {
                        let reps = &out[k..k + replicas];
                        k += replicas;
                        cells.push(fault_cell(ims, m, *replicas, reps, useful, *n)?);
                    }
                }
                let sw = fig8::FaultSweep {
                    n: *n,
                    backend: fig8::Backend::Replicated,
                    seed: fig8::SEED,
                    useful_secs: time::as_secs_f64(useful),
                    delta_secs: delta,
                    intervals: intervals_ms.iter().map(|&i| i as f64 / 1e3).collect(),
                    mtbfs: mtbfs_s.iter().map(|&m| m as f64).collect(),
                    cells,
                };
                Ok(render_fig8(&sw))
            }
        }
    }
}

/// The three fig8 tables, in the order the fig8 binary prints them.
pub fn render_fig8(sw: &fig8::FaultSweep) -> String {
    [
        fig8::table(sw).render(),
        fig8::lost_work_table(sw).render(),
        fig8::optimal_table(sw).render(),
    ]
    .join("\n")
}

/// Rebuild a [`Sweep`] from one figure's baseline and cell reports, the
/// way the sweep harness assembles it.
fn paper_sweep<'a>(
    n: u32,
    f: &PaperFig,
    job: impl Fn(usize) -> Result<&'a RunReport, String>,
) -> Result<Sweep, String> {
    let base = job(f.base)?;
    let mut events = base.events;
    let mut elided_wakes = base.elided_wakes;
    let mut cells = Vec::new();
    let mut i = f.base + 1;
    for &at in &f.points {
        for &g in &f.sizes {
            let ck = job(i)?;
            i += 1;
            events += ck.events;
            elided_wakes += ck.elided_wakes;
            let ep = ck
                .epochs
                .first()
                .ok_or_else(|| format!("checkpoint at {at} s never ran"))?;
            cells.push(Cell {
                at_secs: at as f64,
                group_size: g,
                effective: time::as_secs_f64(ck.completion.saturating_sub(base.completion)),
                individual: time::as_secs_f64(ep.mean_individual()),
                individual_min: time::as_secs_f64(
                    ep.individuals.iter().map(|(_, t)| *t).min().unwrap_or(0),
                ),
                individual_max: time::as_secs_f64(ep.max_individual()),
                total: time::as_secs_f64(ep.total_time()),
            });
        }
    }
    Ok(Sweep {
        n,
        baseline_secs: time::as_secs_f64(base.completion),
        cells,
        events,
        elided_wakes,
    })
}

/// Aggregate one fig8 cell's replicas the way the fig8 sweep does.
fn fault_cell(
    ims: u64,
    mtbf_s: u64,
    replicas: usize,
    reps: &[Outcome],
    useful: Time,
    n: u32,
) -> Result<fig8::FaultCell, String> {
    let mut finished = Vec::new();
    for r in reps {
        match r {
            Outcome::Supervised(s) => finished.push(s),
            Outcome::GaveUp { .. } => {}
            _ => {
                return Err(format!(
                    "fig8 cell ({ims} ms, {mtbf_s} s) has a failed replica"
                ))
            }
        }
    }
    let mean = |f: &dyn Fn(&SupervisedReport) -> Time| {
        finished
            .iter()
            .map(|r| time::as_secs_f64(f(r)))
            .sum::<f64>()
            / finished.len() as f64
    };
    let acct = (!finished.is_empty()).then(|| {
        FaultAccounting::from_run(
            mean(&|r| r.total_wall),
            time::as_secs_f64(useful),
            n,
            finished.iter().map(|r| r.failures_survived()).sum(),
            finished.iter().map(|r| r.attempts.len()).sum(),
        )
    });
    let backoff_secs = if finished.is_empty() {
        0.0
    } else {
        mean(&|r| r.total_backoff)
    };
    let (rsum, rcnt) = finished
        .iter()
        .flat_map(|r| r.attempts.iter())
        .filter(|a| a.restore_wall > 0)
        .fold((0.0, 0usize), |(s, c), a| {
            (s + time::as_secs_f64(a.restore_wall), c + 1)
        });
    Ok(fig8::FaultCell {
        interval_secs: time::as_secs_f64(time::ms(ims)),
        node_mtbf_secs: mtbf_s as f64,
        acct,
        replicas,
        gave_up: replicas - finished.len(),
        backoff_secs,
        recovery_s: if rcnt == 0 { 0.0 } else { rsum / rcnt as f64 },
        counters: sum_counters(finished.iter().copied()),
    })
}

/// One timed pass: every operation once, in canonical order.
pub struct Pass {
    /// Host wall seconds for the whole pass.
    pub wall_s: f64,
    /// Process user + system CPU seconds during the pass.
    pub cpu_s: f64,
    /// Events dispatched by every simulation in the pass (the process-wide
    /// DES counter, so supervised runs' failed attempts count too).
    pub events: u64,
    /// Host wall milliseconds of each operation.
    pub run_ms: Vec<f64>,
    /// Outcomes, one per operation.
    pub outcomes: Vec<Outcome>,
}

impl Plan {
    /// Run every operation once.
    pub fn pass(&self, trace: Option<TraceLevel>) -> Pass {
        let mut outcomes = Vec::with_capacity(self.ops.len());
        let mut run_ms = Vec::with_capacity(self.ops.len());
        let e0 = gbcr_des::total_events_processed();
        let c0 = crate::host::cpu_seconds();
        let t0 = Instant::now();
        for i in 0..self.ops.len() {
            let t = Instant::now();
            outcomes.push(self.run_op(i, trace));
            run_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        Pass {
            wall_s,
            cpu_s: crate::host::cpu_seconds() - c0,
            events: gbcr_des::total_events_processed() - e0,
            run_ms,
            outcomes,
        }
    }
}

/// The result of checking one pass against the goldens.
pub struct Check {
    /// Operations checked against their golden line.
    pub ops_checked: usize,
    /// `(key, reason)` of every failed operation.
    pub failed: Vec<(String, String)>,
    /// Table cells compared with the golden tables.
    pub cells_checked: usize,
    /// Table problems (empty when the tables match).
    pub table_errors: Vec<String>,
    /// The rendered tables (empty if they could not be rendered).
    pub rendered: String,
    /// Every operation's digest, in canonical order.
    pub digests: Vec<String>,
}

impl Plan {
    /// Check every outcome against its golden line, then the rendered
    /// tables against the golden tables: cell by cell always, and byte for
    /// byte at full size.
    pub fn check(&self, outcomes: &[Outcome]) -> Check {
        let mut failed = Vec::new();
        let digests: Vec<String> = outcomes.iter().map(Outcome::digest).collect();
        for (op, (out, d)) in self.ops.iter().zip(outcomes.iter().zip(&digests)) {
            match (out, self.golden.ops.get(&op.key)) {
                (Outcome::Error(e), _) => failed.push((op.key.clone(), format!("error: {e}"))),
                (_, None) => failed.push((op.key.clone(), "no golden line".into())),
                (_, Some(g)) if g != d => {
                    failed.push((op.key.clone(), format!("got `{d}`, golden `{g}`")))
                }
                _ => {}
            }
        }
        let (rendered, cells_checked, table_errors) = match self.render(outcomes) {
            Ok(text) => {
                let (cells, mut errs) = golden::compare_cells(&text, &self.golden.tables);
                if self.size == Size::Full && text != self.golden.tables {
                    errs.push("rendered tables are not byte-identical to the golden".into());
                }
                (text, cells, errs)
            }
            Err(e) => (String::new(), 0, vec![format!("tables not rendered: {e}")]),
        };
        Check {
            ops_checked: self.ops.len(),
            failed,
            cells_checked,
            table_errors,
            rendered,
            digests,
        }
    }
}
