//! Multi-tenant cluster service mode: many concurrent jobs in **one**
//! simulation, contending for shared infrastructure.
//!
//! The sweep harness runs independent cells; a production cluster runs
//! many *interfering* jobs that share the storage arrays and the fabric.
//! [`run_cluster`] admits every tenant's [`JobSpec`] into a single
//! [`Sim`], with each tenant carrying its own checkpoint policy
//! ([`TenantPolicy`]: interval, phase offset, group size, backend) and the
//! admission step packing central-backend tenants onto the configured
//! storage arrays with the cost-aware LPT policy the sweep dispatcher
//! uses.
//!
//! Two contention knobs model the shared infrastructure:
//!
//! * **storage** — with [`ClusterSpec::contention`] on, every
//!   central-backend tenant assigned to an array writes through one shared
//!   processor-sharing [`gbcr_storage::Storage`] device, so co-tenant
//!   checkpoint storms split the array's aggregate bandwidth exactly like
//!   co-scheduled ranks of one job do. Replicated-backend tenants are
//!   diskless (per-node in-memory stores) and never touch the arrays.
//! * **fabric** — each tenant's data-plane [`gbcr_net::NetConfig`] is
//!   derated to its static fair share of the cluster link
//!   ([`gbcr_net::NetConfig::shared_among`] the tenant count), the
//!   bandwidth-tax model of a fully-bisectional fabric carrying every
//!   tenant at once.
//!
//! With contention **off**, every tenant gets the exact private substrate
//! a solo [`crate::JobRunner`] run would build, and — because no model
//! code draws from the simulation RNG and tenants exchange no messages —
//! each tenant's outputs are **byte-identical** to its solo run (gated by
//! a proptest). That independence is the baseline the `fig10`
//! interference study measures against.

use crate::coordinator::{CkptSchedule, CoordinatorCfg, EpochReport, PhaseDeadlines};
use crate::controller::{CkptMode, RankCkptRecord};
use crate::election::ElectionCfg;
use crate::group::Formation;
use crate::job::{install_job, JobParts, JobSpec, RunReport, StoreBackend};
use gbcr_des::trace::PhaseStat;
use gbcr_des::{Sim, SimResult, Time, TraceData, TraceLevel};
use gbcr_mpi::DeferStats;
use gbcr_storage::{
    CentralStore, CheckpointStore, FailoverWriter, RetryPolicy, Storage, StorageConfig,
    StorageStats,
};
use std::collections::HashSet;
use std::sync::Arc;

/// A tenant's checkpoint policy: when to checkpoint, in what formation,
/// and through which backend. The knobs the interference study sweeps.
#[derive(Debug, Clone)]
pub struct TenantPolicy {
    /// Virtual time between checkpoint epochs.
    pub interval: Time,
    /// Offset of the first epoch — staggering offsets across tenants
    /// de-synchronizes the cluster's checkpoint storms.
    pub offset: Time,
    /// Number of scheduled epochs.
    pub epochs: u32,
    /// Static group size (`n` = cluster-wide coordinated checkpointing,
    /// the paper's baseline; smaller = group-based).
    pub group_size: u32,
    /// Checkpoint-store backend (overrides the spec's). `Central` tenants
    /// contend for the shared arrays; `Replicated` tenants are diskless.
    pub backend: StoreBackend,
    /// Estimated per-epoch checkpoint bytes, used as this tenant's cost in
    /// the LPT packing onto storage arrays (heavier writers spread first).
    pub ckpt_bytes: u64,
}

impl TenantPolicy {
    /// The absolute epoch schedule this policy expands to.
    pub fn schedule(&self) -> CkptSchedule {
        CkptSchedule {
            at: (0..self.epochs)
                .map(|e| self.offset + Time::from(e) * self.interval)
                .collect(),
        }
    }

    /// The coordinator configuration this policy expands to for job
    /// `name`: static groups of `group_size`, the policy's absolute
    /// schedule, buffering mode, no deadlines, no election — the
    /// steady-state service configuration. Solo baseline runs use the
    /// same expansion, so cluster-vs-solo comparisons are policy-exact.
    pub fn ckpt_cfg(&self, name: &str) -> CoordinatorCfg {
        CoordinatorCfg {
            job: name.to_owned(),
            mode: CkptMode::Buffering,
            formation: Formation::Static { group_size: self.group_size },
            schedule: self.schedule(),
            incremental: false,
            deadlines: PhaseDeadlines::none(),
            election: ElectionCfg::disabled(),
        }
    }
}

/// One admitted job: its workload spec plus its checkpoint policy.
#[derive(Clone)]
pub struct ClusterTenant {
    /// The workload (name, ranks, body, substrate configs). Tenant names
    /// must be unique across the cluster — they namespace checkpoint
    /// objects on the shared arrays.
    pub spec: JobSpec,
    /// The tenant's checkpoint policy.
    pub policy: TenantPolicy,
}

/// The whole cluster: shared infrastructure plus the admitted tenants.
#[derive(Clone)]
pub struct ClusterSpec {
    /// Simulation seed (model outputs are independent of it — kept for
    /// parity with [`JobSpec::seed`] and future stochastic arrivals).
    pub seed: u64,
    /// The shared storage arrays central-backend tenants are packed onto.
    pub arrays: Vec<StorageConfig>,
    /// Retry/backoff policy for writes through the shared arrays.
    pub write_retry: RetryPolicy,
    /// Model shared-resource contention. `false` gives every tenant the
    /// private substrate a solo run would build (the independence
    /// baseline); `true` shares the arrays and derates the fabric.
    pub contention: bool,
    /// The admitted jobs.
    pub tenants: Vec<ClusterTenant>,
}

impl ClusterSpec {
    /// A cluster with one paper-testbed array, default retry policy, and
    /// contention on.
    pub fn new(tenants: Vec<ClusterTenant>) -> Self {
        ClusterSpec {
            seed: 0,
            arrays: vec![StorageConfig::paper_testbed()],
            write_retry: RetryPolicy::default(),
            contention: true,
            tenants,
        }
    }
}

/// One tenant's model outputs from a cluster run. Exactly the fields a
/// solo [`RunReport`] carries for the same job (see
/// [`TenantReport::from_run`]), so contention-off cluster runs can be
/// compared byte-for-byte (via `Debug`) against solo runs.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant (job) name.
    pub name: String,
    /// Latest time any of the tenant's ranks finished its body.
    pub completion: Time,
    /// Per-epoch checkpoint reports from the tenant's coordinator.
    pub epochs: Vec<EpochReport>,
    /// Per-rank, per-epoch checkpoint records.
    pub rank_records: Vec<RankCkptRecord>,
    /// The tenant's data-fabric counters.
    pub net_stats: gbcr_net::NetStats,
    /// Aggregated buffering counters across the tenant's ranks.
    pub defer_stats: DeferStats,
    /// Bytes message-logged (Logging mode only).
    pub logged_bytes: u64,
    /// Channel-state bytes logged (Chandy-Lamport mode only).
    pub channel_logged_bytes: u64,
    /// How many of the tenant's ranks ran to completion.
    pub finished_ranks: u32,
}

impl TenantReport {
    /// Project a solo run's report down to the per-tenant view — the
    /// solo side of the cluster-vs-solo identity check.
    pub fn from_run(name: &str, report: &RunReport) -> Self {
        TenantReport {
            name: name.to_owned(),
            completion: report.completion,
            epochs: report.epochs.clone(),
            rank_records: report.rank_records.clone(),
            net_stats: report.net_stats.clone(),
            defer_stats: report.defer_stats,
            logged_bytes: report.logged_bytes,
            channel_logged_bytes: report.channel_logged_bytes,
            finished_ranks: report.finished_ranks,
        }
    }

    /// P99 (by the nearest-rank method) of this tenant's epoch latencies
    /// ([`EpochReport::total_time`]), or 0 with no epochs.
    pub fn p99_epoch(&self) -> Time {
        percentile(self.epochs.iter().map(|e| e.total_time()), 0.99)
    }
}

/// Nearest-rank percentile of a latency population (`q` in 0..=1), 0 when
/// empty. Sorted ascending; rank `ceil(q * len)` (1-based, clamped).
pub fn percentile(samples: impl IntoIterator<Item = Time>, q: f64) -> Time {
    let mut v: Vec<Time> = samples.into_iter().collect();
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Everything measured from one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Per-tenant model outputs, in admission order.
    pub tenants: Vec<TenantReport>,
    /// Which shared array each tenant was packed onto (`None` for
    /// replicated/diskless tenants, and for every tenant when contention
    /// is off — private substrates have no shared array).
    pub assignment: Vec<Option<usize>>,
    /// Transfer stats of each shared array (empty when contention is off).
    pub storage_stats: Vec<StorageStats>,
    /// When the whole cluster simulation drained.
    pub sim_end: Time,
    /// Simulated events dispatched (simulator cost, not a model output).
    pub events: u64,
    /// Which executor backend ran the simulated processes.
    pub executor: gbcr_des::ExecKind,
    /// Simulated processes spawned across all tenants.
    pub procs_spawned: u64,
    /// High-water mark of simultaneously live simulated processes.
    pub peak_live_procs: u64,
    /// Peak OS threads used for process execution.
    pub exec_threads: u64,
    /// Per-span-name latency statistics (empty unless traced).
    pub phase_stats: Vec<PhaseStat>,
    /// The raw trace, present only when the run was traced. Coordinator
    /// spans carry a `job` argument, so a traced cluster run attributes
    /// every phase's time to its tenant.
    pub trace: Option<Arc<TraceData>>,
}

/// Deterministic LPT (longest-processing-time) packing: items in
/// descending cost (ties by index) each go to the currently least-loaded
/// bin (ties to the lowest bin id). The same greedy the PR 2 sweep
/// dispatcher uses for cost-aware cell placement, reused here as the
/// admission policy packing tenants onto storage arrays.
pub fn lpt_pack(costs: &[u64], bins: usize) -> Vec<usize> {
    assert!(bins > 0, "lpt_pack needs at least one bin");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    let mut load = vec![0u64; bins];
    let mut assignment = vec![0usize; costs.len()];
    for i in order {
        let bin = (0..bins).min_by_key(|&b| (load[b], b)).expect("bins > 0");
        load[bin] += costs[i];
        assignment[i] = bin;
    }
    assignment
}

/// Admit every tenant into one simulation and run the cluster to
/// completion.
///
/// Admission builds the shared arrays (contention on), packs
/// central-backend tenants onto them by [`lpt_pack`] over
/// [`TenantPolicy::ckpt_bytes`], derates each tenant's data fabric to its
/// fair share, and installs each tenant through the same
/// `install_job` prologue a solo run uses — same operation order per
/// tenant, so contention-off runs reproduce solo runs byte-for-byte.
pub fn run_cluster(spec: &ClusterSpec, trace: Option<TraceLevel>) -> SimResult<ClusterReport> {
    let names: HashSet<&str> = spec.tenants.iter().map(|t| t.spec.name.as_str()).collect();
    assert_eq!(
        names.len(),
        spec.tenants.len(),
        "tenant names must be unique (they namespace checkpoint objects)"
    );

    let sim = Sim::new(spec.seed);
    if let Some(level) = trace {
        sim.handle().tracer().set_level(level);
    }
    let h = sim.handle();

    // Admission: pack central-backend tenants onto the shared arrays by
    // their declared checkpoint weight. Replicated tenants are diskless.
    let (shared_stores, assignment) = if spec.contention {
        let stores: Vec<Arc<dyn CheckpointStore>> = spec
            .arrays
            .iter()
            .map(|cfg| {
                let storage = Storage::new(h.clone(), cfg.clone());
                Arc::new(CentralStore::new(FailoverWriter::new(
                    vec![storage],
                    spec.write_retry.clone(),
                ))) as Arc<dyn CheckpointStore>
            })
            .collect();
        let central: Vec<usize> = (0..spec.tenants.len())
            .filter(|&i| matches!(spec.tenants[i].policy.backend, StoreBackend::Central))
            .collect();
        let costs: Vec<u64> =
            central.iter().map(|&i| spec.tenants[i].policy.ckpt_bytes).collect();
        let packed = lpt_pack(&costs, stores.len());
        let mut assignment = vec![None; spec.tenants.len()];
        for (k, &i) in central.iter().enumerate() {
            assignment[i] = Some(packed[k]);
        }
        (stores, assignment)
    } else {
        (Vec::new(), vec![None; spec.tenants.len()])
    };

    let mut parts: Vec<JobParts> = Vec::with_capacity(spec.tenants.len());
    for (i, tenant) in spec.tenants.iter().enumerate() {
        let mut jspec = tenant.spec.clone();
        jspec.backend = tenant.policy.backend;
        if spec.contention {
            // Static fair share of the cluster fabric: every tenant's
            // data plane carries 1/k of the link bandwidth.
            let shared = jspec.mpi.net.shared_among(spec.tenants.len() as u64);
            jspec.mpi = jspec.mpi.to_builder().net(shared).build();
        }
        let ckpt = tenant.policy.ckpt_cfg(&jspec.name);
        let store = assignment[i].map(|a| shared_stores[a].clone());
        parts.push(install_job(&h, &jspec, Some(ckpt), None, store));
    }

    let mut sim = sim;
    let sim_end = sim.run()?;
    let events = sim.events_processed();
    sim.shutdown();
    let executor = sim.executor_kind();
    let procs_spawned = sim.procs_spawned();
    let peak_live_procs = sim.peak_live_procs();
    let exec_threads = sim.exec_threads();

    let tenants = spec
        .tenants
        .iter()
        .zip(&parts)
        .map(|(tenant, p)| {
            let (defer_stats, logged_bytes) = p.defer_and_logged();
            TenantReport {
                name: tenant.spec.name.clone(),
                completion: p.completion(sim_end),
                epochs: p.coordinator.reports(),
                rank_records: p.rank_records(),
                net_stats: p.world.net_stats(),
                defer_stats,
                logged_bytes,
                channel_logged_bytes: p.channel_logged_bytes(),
                finished_ranks: p.finished_ranks(),
            }
        })
        .collect();
    let storage_stats = shared_stores.iter().map(|s| s.storage_stats()).collect();
    let trace_data = sim.handle().tracer().take();
    let phase_stats = gbcr_des::trace::phase_stats(&trace_data.spans);
    let trace = (!trace_data.is_empty()).then(|| Arc::new(trace_data));
    Ok(ClusterReport {
        tenants,
        assignment,
        storage_stats,
        sim_end,
        events,
        executor,
        procs_spawned,
        peak_live_procs,
        exec_threads,
        phase_stats,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_spreads_heavy_items_first() {
        // Classic LPT: 7,6,5,4 over 2 bins → {7,4} and {6,5}.
        let a = lpt_pack(&[5, 7, 4, 6], 2);
        assert_eq!(a, vec![1, 0, 0, 1]);
        // Equal costs round-robin by index.
        assert_eq!(lpt_pack(&[3, 3, 3, 3], 2), vec![0, 1, 0, 1]);
        // More bins than items: each item gets its own bin, in cost order.
        assert_eq!(lpt_pack(&[1, 9], 3), vec![1, 0]);
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile([], 0.99), 0);
        assert_eq!(percentile([42], 0.5), 42);
        let v = (1..=100).collect::<Vec<Time>>();
        assert_eq!(percentile(v.iter().copied(), 0.99), 99);
        assert_eq!(percentile(v.iter().copied(), 0.5), 50);
        assert_eq!(percentile(v, 1.0), 100);
    }

    #[test]
    fn policy_schedule_expands_offsets() {
        let p = TenantPolicy {
            interval: 100,
            offset: 7,
            epochs: 3,
            group_size: 2,
            backend: StoreBackend::Central,
            ckpt_bytes: 0,
        };
        assert_eq!(p.schedule().at, vec![7, 107, 207]);
    }
}
