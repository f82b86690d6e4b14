//! The job harness: run an MPI workload under (optional) checkpointing.

use crate::client::CkptClient;
use crate::controller::{CkptMode, Controller, RankCkptRecord};
use crate::coordinator::{Coordinator, CoordinatorCfg, EpochReport};
use crate::election::ControlPlane;
use crate::proto;
use bytes::Bytes;
use gbcr_blcr::codec::fnv1a;
use gbcr_blcr::{LocalCheckpointer, LocalCrConfig, ProcessImage};
use gbcr_des::trace::PhaseStat;
use gbcr_des::{Event, Proc, ProcId, Sim, SimHandle, SimResult, Time, TraceData, TraceLevel};
use gbcr_faults::{FaultConfig, FaultPlan, FaultSink, PhaseAction, PhaseFaults};
use gbcr_mpi::{DeferStats, Mpi, MpiConfig, OobMsg, World, COORDINATOR_NODE};
use gbcr_storage::{
    CentralStore, CheckpointStore, FailoverWriter, ReplicatedCfg, ReplicatedStore, RetryPolicy,
    Storage, StorageConfig, StorageStats, StoredObject, WriteFault,
};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Everything a rank's body closure gets to work with.
pub struct RankCtx<'p> {
    /// The rank's simulated process.
    pub p: &'p Proc,
    /// The rank's MPI handle.
    pub mpi: Mpi,
    /// The world (for creating communicators).
    pub world: World,
    /// The checkpoint client: register state and footprint here.
    pub client: CkptClient,
    /// On restart, the application state saved at the restored epoch.
    pub restored: Option<Bytes>,
}

/// The per-rank application body. Called once per rank; blocking MPI calls
/// are made through `ctx.mpi` with `ctx.p`.
pub type RankBody = Arc<dyn for<'p> Fn(RankCtx<'p>) + Send + Sync>;

/// Which checkpoint-store backend a job writes its images through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreBackend {
    /// The paper's shared central array (plus the optional secondary
    /// target with retry/failover). The default; byte-identical to the
    /// pre-trait harness.
    #[default]
    Central,
    /// Diskless peer replication: each rank's image lives in its own
    /// node's in-memory store plus `replicas` remote ring copies, and
    /// restart reads from the nearest surviving copy.
    Replicated {
        /// Remote copies per image (`k`), clamped to `n - 1`.
        replicas: u32,
    },
}

/// A complete job description: workload plus substrate configurations.
#[derive(Clone)]
pub struct JobSpec {
    /// Job name (namespaces checkpoint images on storage).
    pub name: String,
    /// Simulation seed.
    pub seed: u64,
    /// MPI/world configuration (rank count, fabrics, thresholds).
    pub mpi: MpiConfig,
    /// Central storage configuration.
    pub storage: StorageConfig,
    /// Optional secondary storage target: checkpoint writes that exhaust
    /// their retry budget on the primary fail over here. `None` keeps the
    /// single-target write path.
    pub storage_secondary: Option<StorageConfig>,
    /// Retry/backoff policy for checkpoint image writes hitting a storage
    /// outage.
    pub write_retry: RetryPolicy,
    /// Checkpoint-store backend selection. `Central` uses `storage` /
    /// `storage_secondary` / `write_retry` above; `Replicated` ignores
    /// them and builds per-node in-memory stores instead.
    pub backend: StoreBackend,
    /// Local checkpointer timing.
    pub blcr: LocalCrConfig,
    /// The application.
    pub body: RankBody,
}

impl JobSpec {
    /// A spec with paper-testbed defaults for `n` ranks.
    pub fn new(name: impl Into<String>, n: u32, body: RankBody) -> Self {
        JobSpec {
            name: name.into(),
            seed: 0,
            mpi: MpiConfig::new(n),
            storage: StorageConfig::paper_testbed(),
            storage_secondary: None,
            write_retry: RetryPolicy::default(),
            backend: StoreBackend::Central,
            blcr: LocalCrConfig::default(),
            body,
        }
    }

    /// Builder-style construction. Defaults match [`JobSpec::new`]
    /// exactly, so `JobSpec::builder(name, n, body).build()` and
    /// `JobSpec::new(name, n, body)` are interchangeable.
    pub fn builder(name: impl Into<String>, n: u32, body: RankBody) -> JobSpecBuilder {
        JobSpecBuilder { inner: JobSpec::new(name, n, body) }
    }

    /// Start a [`crate::JobRunner`] for this spec — the one submission
    /// path for solo, traced, crashed, faulted and restarted runs.
    pub fn runner(&self) -> crate::runner::JobRunner<'_> {
        crate::runner::JobRunner::new(self)
    }
}

/// Builder for [`JobSpec`] (see [`JobSpec::builder`]). Every setter
/// overrides one field; unset fields keep the paper-testbed defaults of
/// [`JobSpec::new`]. The plain struct stays public, so struct-literal
/// construction keeps working too.
#[derive(Clone)]
pub struct JobSpecBuilder {
    inner: JobSpec,
}

impl JobSpecBuilder {
    /// Simulation seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// MPI/world configuration (replaces the default `MpiConfig::new(n)`).
    pub fn mpi(mut self, mpi: MpiConfig) -> Self {
        self.inner.mpi = mpi;
        self
    }

    /// Central storage configuration.
    pub fn storage(mut self, storage: StorageConfig) -> Self {
        self.inner.storage = storage;
        self
    }

    /// Optional secondary storage target for write failover.
    pub fn storage_secondary(mut self, secondary: StorageConfig) -> Self {
        self.inner.storage_secondary = Some(secondary);
        self
    }

    /// Retry/backoff policy for checkpoint image writes.
    pub fn write_retry(mut self, retry: RetryPolicy) -> Self {
        self.inner.write_retry = retry;
        self
    }

    /// Checkpoint-store backend selection.
    pub fn backend(mut self, backend: StoreBackend) -> Self {
        self.inner.backend = backend;
        self
    }

    /// Local checkpointer timing.
    pub fn blcr(mut self, blcr: LocalCrConfig) -> Self {
        self.inner.blcr = blcr;
        self
    }

    /// Finish building the spec.
    pub fn build(self) -> JobSpec {
        self.inner
    }
}

/// A wall-clock (host) cost counter in nanoseconds. Not a model output:
/// its value varies run to run even for identical seeds, so `Debug`
/// deliberately elides it — determinism checks compare report debug
/// dumps byte-for-byte, and simulator cost must never fail them.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct WallNanos(pub u64);

impl std::fmt::Debug for WallNanos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WallNanos(..)")
    }
}

/// Everything measured from one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Latest time any rank's application body finished — the job
    /// completion time used for *Effective Checkpoint Delay*.
    pub completion: Time,
    /// When the simulation fully drained (includes shutdown handshakes).
    pub sim_end: Time,
    /// Per-epoch checkpoint reports from the coordinator.
    pub epochs: Vec<EpochReport>,
    /// Per-rank, per-epoch individual records from the controllers.
    pub rank_records: Vec<RankCkptRecord>,
    /// Completed storage transfers.
    pub storage_stats: StorageStats,
    /// Data-fabric counters.
    pub net_stats: gbcr_net::NetStats,
    /// Aggregated buffering counters across ranks.
    pub defer_stats: DeferStats,
    /// Total bytes message-logged (Logging mode only).
    pub logged_bytes: u64,
    /// Channel-state bytes logged (Chandy-Lamport mode only).
    pub channel_logged_bytes: u64,
    /// The checkpoint images left on storage (for restarts).
    pub images: Vec<(String, StoredObject)>,
    /// Simulated events the run dispatched (simulator cost, not a model
    /// output — feeds the bench harness's per-cell cost accounting).
    pub events: u64,
    /// Progress wakes elided by demand-driven compute slicing.
    pub elided_wakes: u64,
    /// Which executor backend ran the simulated processes.
    pub executor: gbcr_des::ExecKind,
    /// Simulated processes spawned (ranks plus coordinator, writers and
    /// other service processes). Simulator cost, like `events`.
    pub procs_spawned: u64,
    /// High-water mark of simultaneously live simulated processes.
    pub peak_live_procs: u64,
    /// Peak OS threads used for process execution: 1 under the pooled
    /// executor (slices run on the thread running the simulation),
    /// `peak_live_procs` under the threaded one.
    pub exec_threads: u64,
    /// Wall-clock nanoseconds spent inside process spawns.
    pub spawn_cost_ns: WallNanos,
    /// Wall-clock nanoseconds spent tearing processes down after the run.
    pub teardown_cost_ns: WallNanos,
    /// Ranks killed by fault injection during this run, in kill order
    /// (empty for fault-free and whole-cluster-crash runs).
    pub killed_ranks: Vec<u32>,
    /// How many ranks' application bodies ran to completion (`n` iff the
    /// job finished).
    pub finished_ranks: u32,
    /// Messages black-holed because their destination's node had failed.
    pub sends_to_failed: u64,
    /// Epoch attempts discarded because a phase deadline tripped.
    pub protocol_aborts: u64,
    /// Epoch attempts re-run after an abort.
    pub epoch_retries: u64,
    /// Per-epoch manifests durably committed (primary storage).
    pub manifest_commits: u64,
    /// Manifest commits lost to the torn-manifest fault point.
    pub torn_manifests: u64,
    /// Checkpoint image writes retried after a transient storage failure.
    pub write_retries: u64,
    /// Checkpoint image writes that failed over to a secondary target.
    pub failovers: u64,
    /// Remote replica copies written (replicated backend; 0 on central).
    pub replicas_written: u64,
    /// Bytes carried by those replica copies.
    pub replica_bytes: u64,
    /// Restart reads served from a remote replica.
    pub remote_recoveries: u64,
    /// Restart reads served from the owner node's local copy.
    pub local_recoveries: u64,
    /// Replica copies destroyed by node crashes.
    pub replica_losses: u64,
    /// Coordinator-node kills injected into this run.
    pub coordinator_kills: u64,
    /// Leader elections contested by standbys (candidacies, not wins).
    pub elections_held: u64,
    /// The control plane's final term: 1 for a run that never lost its
    /// coordinator, +1 per successful failover election.
    pub terms: u64,
    /// Lease expiries observed by standbys (heartbeat silence).
    pub heartbeats_missed: u64,
    /// Successful leadership migrations (elections won and taken over).
    pub leader_migrations: u64,
    /// Summed virtual time between a coordinator kill and its successor
    /// taking over (0 when no migration happened).
    pub time_to_new_leader: Time,
    /// `(term, epochs committed)` at the moment the coordinator was lost,
    /// for runs that died without a successor taking over (`None` for
    /// finished runs and for survived failovers) — the supervisor turns
    /// this into [`gbcr_des::SimError::CoordinatorLost`].
    pub coordinator_lost: Option<(u64, u64)>,
    /// Latest instant any rank finished reading its image back and
    /// re-injecting state during a restart (0 for non-restart runs) — the
    /// restart-storm latency the backend comparison measures.
    pub restore_done: Time,
    /// Per-span-name latency statistics aggregated from the run's trace
    /// (empty unless the run was traced — see [`crate::JobRunner::traced`]).
    pub phase_stats: Vec<PhaseStat>,
    /// The raw trace (spans + instants), present only when the run was
    /// traced. Export with [`gbcr_des::trace::perfetto::to_chrome_json`].
    pub trace: Option<Arc<TraceData>>,
}

impl RunReport {
    /// Sum of individual times for `epoch`, per rank.
    pub fn individuals(&self, epoch: u64) -> Vec<(u32, Time)> {
        self.epochs
            .iter()
            .find(|e| e.epoch == epoch)
            .map(|e| e.individuals.clone())
            .unwrap_or_default()
    }

    /// The newest epoch whose full image set — one image per rank in
    /// `0..n`, named under `job` — survives in [`RunReport::images`]: the
    /// restart point a supervisor would pick. `None` when no epoch is
    /// complete (the crash preceded the first checkpoint, or every
    /// completed epoch lost an image to a torn write).
    pub fn last_complete_epoch(&self, job: &str, n: u32) -> Option<u64> {
        let names: HashSet<&str> = self.images.iter().map(|(k, _)| k.as_str()).collect();
        self.epochs
            .iter()
            .filter(|e| {
                (0..n).all(|r| {
                    names.contains(ProcessImage::object_name(job, e.epoch, r).as_str())
                })
            })
            .map(|e| e.epoch)
            .max()
    }

    /// Whether any epoch manifest for `job` survives in
    /// [`RunReport::images`] — when none does (pre-manifest image sets, the
    /// Chandy-Lamport and uncoordinated paths, or a crash before the first
    /// commit), restart-point selection falls back to the image scan.
    pub fn has_manifests(&self, job: &str) -> bool {
        self.images.iter().any(|(name, obj)| {
            proto::decode_manifest(obj.payload.clone())
                .is_ok_and(|(epoch, _)| *name == proto::manifest_name(job, epoch))
        })
    }

    /// The newest epoch whose **committed manifest** survives in
    /// [`RunReport::images`] and checks out against the images it lists
    /// (one entry per rank in `0..n`, each matching its image's size and
    /// checksum). This is the authoritative restart point under the
    /// two-phase epoch commit: a manifest is written only after every rank
    /// ACKed the epoch, so its presence proves the image set is a
    /// consistent global snapshot. Returns `None` when no valid manifest
    /// exists.
    pub fn last_manifested_epoch(&self, job: &str, n: u32) -> Option<u64> {
        let by_name: HashMap<&str, &StoredObject> =
            self.images.iter().map(|(k, v)| (k.as_str(), v)).collect();
        self.images
            .iter()
            .filter_map(|(name, obj)| {
                // A torn manifest never reaches storage, but a stale or
                // foreign object under a manifest-shaped name must not be
                // trusted: decode and cross-check every listed image.
                let (epoch, entries) = proto::decode_manifest(obj.payload.clone()).ok()?;
                if *name != proto::manifest_name(job, epoch) || entries.len() != n as usize {
                    return None;
                }
                entries
                    .iter()
                    .all(|&(r, size, checksum)| {
                        r < n
                            && by_name
                                .get(ProcessImage::object_name(job, epoch, r).as_str())
                                .is_some_and(|img| {
                                    img.virtual_size == size && fnv1a(&img.payload) == checksum
                                })
                    })
                    .then_some(epoch)
            })
            .max()
    }
}

/// The default (no-checkpoint) coordinator configuration [`run_job_full`]
/// substitutes when the caller passes `ckpt = None`: the same harness with
/// an empty schedule, so baseline and checkpointed runs differ only by the
/// checkpoints themselves.
pub(crate) fn default_ckpt_cfg(spec: &JobSpec) -> CoordinatorCfg {
    CoordinatorCfg {
        job: spec.name.clone(),
        mode: CkptMode::Buffering,
        formation: crate::group::Formation::regular(spec.mpi.n),
        schedule: crate::coordinator::CkptSchedule::none(),
        incremental: false,
        deadlines: crate::coordinator::PhaseDeadlines::none(),
        election: crate::election::ElectionCfg::disabled(),
    }
}

/// Carries node kills, cluster kills, link flaps and storage stalls from
/// the injector into the running simulation. Owns everything the fault
/// model needs: process ids (to kill), the world (to tear connections and
/// black-hole sends), the storage device (to derate), and the completion
/// tracker (a kill drawn past job completion is a non-event).
struct JobFaultSink {
    world: World,
    store: Arc<dyn CheckpointStore>,
    rank_pids: Vec<ProcId>,
    coord_pid: ProcId,
    body_ends: Arc<Mutex<Vec<Time>>>,
    n: u32,
    detect_latency: Time,
    killed: Mutex<Vec<u32>>,
    /// The coordinator handle (epoch reports tell a coordinator kill how
    /// far the schedule had committed).
    coordinator: Coordinator,
    /// The shared control plane: leader/heartbeat pids to kill, and where
    /// coordinator-loss accounting lands. Inert when the election is
    /// disabled.
    control: Arc<ControlPlane>,
}

impl JobFaultSink {
    fn job_over(&self) -> bool {
        self.body_ends.lock().len() == self.n as usize
    }
}

impl FaultSink for JobFaultSink {
    fn node_kill(&self, h: &SimHandle, rank: u32) {
        // The job outlived this failure draw, or the victim is already
        // dead: nothing to do. Without the first check a post-completion
        // kill would extend `sim_end` and abort a finished run.
        if self.job_over() || self.killed.lock().contains(&rank) {
            return;
        }
        h.trace_instant(|| Event::FaultNodeKill { rank });
        h.kill(self.rank_pids[rank as usize]);
        self.world.mark_failed(rank);
        // A dead node takes its in-memory checkpoint copies with it
        // (no-op on the central backend).
        self.store.node_failed(rank);
        self.killed.lock().push(rank);
        if self.control.enabled() {
            // The rank's election standby rides the same physical node, so
            // it dies with the rank — an orphaned standby of a dead rank
            // would otherwise stop seeing heartbeats and contest a healthy
            // leader (split brain).
            if let Some(&spid) = self.control.standby_pids.lock().get(rank as usize) {
                h.kill(spid);
            }
        }
        // The launcher notices the dead node after the detector latency
        // and aborts the surviving job (mpirun's fail-stop cleanup).
        let survivors: Vec<ProcId> = self
            .rank_pids
            .iter()
            .enumerate()
            .filter(|&(r, _)| r != rank as usize)
            .map(|(_, &pid)| pid)
            .collect();
        let coord = self.coord_pid;
        let control = self.control.clone();
        h.call_after(self.detect_latency, move |h| {
            h.trace_instant(|| Event::FaultAbort { rank });
            for pid in survivors {
                h.kill(pid);
            }
            h.kill(coord);
            if control.enabled() {
                // Tear the failover machinery down with the job: whoever
                // currently leads, its heartbeat stream, and the standbys.
                control.finish();
                if let Some(l) = control.leader_pid.lock().take() {
                    h.kill(l);
                }
                if let Some(hb) = control.hb_pid.lock().take() {
                    h.kill(hb);
                }
                for &pid in control.standby_pids.lock().iter() {
                    h.kill(pid);
                }
            }
        });
    }

    fn cluster_kill(&self, h: &SimHandle) {
        // Kill order (ranks, then coordinator, then the trace line) is
        // identical to the original whole-cluster crash closure so that
        // legacy crash runs stay byte-for-byte reproducible.
        for &pid in &self.rank_pids {
            h.kill(pid);
        }
        h.kill(self.coord_pid);
        if self.control.enabled() {
            self.control.finish();
            if let Some(l) = self.control.leader_pid.lock().take() {
                h.kill(l);
            }
            if let Some(hb) = self.control.hb_pid.lock().take() {
                h.kill(hb);
            }
            for &pid in self.control.standby_pids.lock().iter() {
                h.kill(pid);
            }
        }
        h.trace_instant(|| Event::ClusterCrash);
    }

    fn coordinator_kill(&self, h: &SimHandle) {
        // A kill drawn past job completion — or landing after the control
        // plane already stood down — is a non-event, mirroring node_kill.
        if self.job_over() || self.control.is_done() {
            return;
        }
        let term = self.control.term.load(Ordering::Relaxed);
        h.trace_instant(|| Event::CoordinatorKilled { term });
        self.control.note_kill(h.now(), term, self.coordinator.reports().len() as u64);
        // Kill whoever currently plays coordinator, plus its lease stream,
        // then tear down the console's control-plane links. The ranks keep
        // running: this is a control-plane loss, not a data-plane one.
        let leader = self.control.leader_pid.lock().take().unwrap_or(self.coord_pid);
        h.kill(leader);
        if let Some(hb) = self.control.hb_pid.lock().take() {
            h.kill(hb);
        }
        self.world.mark_coordinator_failed();
        if !self.control.enabled() {
            // Static control plane: nobody can take over. The launcher's
            // detector eventually notices the dead console and tears the
            // job down — the supervisor-escalation path failover exists to
            // avoid.
            let ranks = self.rank_pids.clone();
            h.call_after(self.detect_latency, move |h| {
                h.trace_instant(|| Event::FaultAbort { rank: gbcr_faults::COORDINATOR_VICTIM });
                for pid in ranks {
                    h.kill(pid);
                }
            });
        }
    }

    fn link_flap(&self, h: &SimHandle, a: u32, b: u32) {
        if self.job_over() || self.world.is_failed(a) || self.world.is_failed(b) {
            return;
        }
        h.trace_instant(|| Event::FaultLinkFlap { a, b });
        self.world.flap_link(a, b);
    }

    fn storage_stall(&self, h: &SimHandle, factor: f64, until: Time) {
        self.store.set_derate(factor);
        let store = self.store.clone();
        h.call_at(until, move |_| store.set_derate(1.0));
    }

    fn storage_outage(&self, _h: &SimHandle, target: u32, until: Time) {
        // An outage aimed at an unconfigured target (e.g. a secondary that
        // this run does not have, or a node id past the world size) is a
        // non-event — the backend ignores out-of-range indices.
        self.store.set_outage(target as usize, until);
    }
}

/// Everything [`install_job`] wired into a simulation for one job: the
/// handles a caller needs to arm fault injection, pick a scheduler
/// backend, and collect the job's model outputs after the run drains.
/// [`run_job_full`] consumes one for a solo run; `crate::cluster` installs
/// many into a shared simulation and collects each tenant separately.
pub(crate) struct JobParts {
    pub(crate) world: World,
    pub(crate) store: Arc<dyn CheckpointStore>,
    pub(crate) coordinator: Coordinator,
    pub(crate) body_ends: Arc<Mutex<Vec<Time>>>,
    pub(crate) restore_ends: Arc<Mutex<Vec<Time>>>,
    pub(crate) controllers: Arc<Mutex<Vec<Arc<Controller>>>>,
    pub(crate) mpis: Arc<Mutex<Vec<Mpi>>>,
    pub(crate) rank_pids: Vec<ProcId>,
    pub(crate) n: u32,
}

impl JobParts {
    /// Latest time any rank's application body finished (the job
    /// completion time), falling back to `sim_end` for runs where no body
    /// completed.
    pub(crate) fn completion(&self, sim_end: Time) -> Time {
        self.body_ends.lock().iter().copied().max().unwrap_or(sim_end)
    }

    /// Per-rank, per-epoch checkpoint records in rank order.
    pub(crate) fn rank_records(&self) -> Vec<RankCkptRecord> {
        self.controllers.lock().iter().flat_map(|c| c.records()).collect()
    }

    /// Channel-state bytes logged across ranks (Chandy-Lamport mode only).
    pub(crate) fn channel_logged_bytes(&self) -> u64 {
        self.controllers.lock().iter().map(|c| c.cl_logged_bytes()).sum()
    }

    /// Aggregated buffering counters and message-logged bytes across
    /// ranks.
    pub(crate) fn defer_and_logged(&self) -> (DeferStats, u64) {
        let mpis = self.mpis.lock();
        let mut agg = DeferStats::default();
        let mut logged = 0;
        for m in mpis.iter() {
            let s = m.stats();
            let d = s.defer;
            agg.msg_buffered += d.msg_buffered;
            agg.msg_buffered_bytes += d.msg_buffered_bytes;
            agg.req_buffered += d.req_buffered;
            agg.req_buffered_bytes += d.req_buffered_bytes;
            agg.released += d.released;
            agg.max_queue = agg.max_queue.max(d.max_queue);
            agg.dups_dropped += d.dups_dropped;
            logged += s.logged_bytes;
        }
        (agg, logged)
    }

    /// How many ranks' application bodies ran to completion.
    pub(crate) fn finished_ranks(&self) -> u32 {
        self.body_ends.lock().len() as u32
    }

    /// Latest instant any rank finished its restart-storm image read (0
    /// for non-restart runs).
    pub(crate) fn restore_done(&self) -> Time {
        self.restore_ends.lock().iter().copied().max().unwrap_or(0)
    }
}

/// Install one job — checkpoint store, world, coordinator, and every
/// rank's process — into the simulation behind `h`, without running it.
/// The operation order is exactly the historical `run_job_full` prologue,
/// so solo runs stay byte-identical; `store_override` lets the cluster
/// harness point several tenants at one shared (contended) store instead
/// of building a private one.
pub(crate) fn install_job(
    h: &SimHandle,
    spec: &JobSpec,
    ckpt: Option<CoordinatorCfg>,
    preload: Option<&crate::restart::RestartSpec>,
    store_override: Option<Arc<dyn CheckpointStore>>,
) -> JobParts {
    let n = spec.mpi.n;
    // Build the checkpoint-store backend. The central path constructs the
    // same device/writer stack the pre-trait harness did, in the same
    // order, so central runs stay byte-identical with historical ones.
    let store: Arc<dyn CheckpointStore> = match store_override {
        Some(store) => store,
        None => match spec.backend {
            StoreBackend::Central => {
                let storage = Storage::new(h.clone(), spec.storage.clone());
                let secondary = spec
                    .storage_secondary
                    .as_ref()
                    .map(|cfg| Storage::new(h.clone(), cfg.clone()));
                let mut targets = vec![storage];
                targets.extend(secondary);
                Arc::new(CentralStore::new(FailoverWriter::new(
                    targets,
                    spec.write_retry.clone(),
                )))
            }
            StoreBackend::Replicated { replicas } => {
                // The ring rotation is a stream-isolated draw keyed by the
                // world size: same seed + same n replays the same placement,
                // and the draw cannot perturb any other fault stream.
                let shift = gbcr_faults::rng::draw_u64(
                    spec.seed,
                    gbcr_faults::rng::Domain::Replica,
                    u64::from(n),
                );
                let cfg = ReplicatedCfg { replicas, shift, ..ReplicatedCfg::default() };
                Arc::new(ReplicatedStore::new(h.clone(), cfg, n))
            }
        },
    };

    let ckpt_cfg = ckpt.unwrap_or_else(|| default_ckpt_cfg(spec));
    // Uncoordinated mode runs sender-based pessimistic logging for the
    // entire job — that is its defining failure-free cost — so the mode is
    // part of the world's construction-time configuration, not a toggle
    // flipped after attach.
    let mpi_cfg = if ckpt_cfg.mode == CkptMode::Uncoordinated {
        spec.mpi.to_builder().message_logging(true).build()
    } else {
        spec.mpi.clone()
    };
    let world = World::new(h.clone(), mpi_cfg);

    let restore = preload.map(|r| (r.job.clone(), r.epoch));
    if let Some(r) = preload {
        // The spec method enforces the replicated-recovery ordering
        // invariant (lost nodes wiped before the preload) so no caller can
        // get it wrong again.
        r.install(store.as_ref());
    }

    let job_name = ckpt_cfg.job.clone();
    let mode = ckpt_cfg.mode;
    let incremental = ckpt_cfg.incremental;
    let coordinator = Coordinator::spawn(h, &world, ckpt_cfg, store.clone());

    let body_ends: Arc<Mutex<Vec<Time>>> = Arc::new(Mutex::new(Vec::new()));
    let restore_ends: Arc<Mutex<Vec<Time>>> = Arc::new(Mutex::new(Vec::new()));
    let controllers: Arc<Mutex<Vec<Arc<Controller>>>> = Arc::new(Mutex::new(Vec::new()));
    let mpis: Arc<Mutex<Vec<Mpi>>> = Arc::new(Mutex::new(Vec::new()));
    let mut rank_pids = Vec::with_capacity(n as usize);

    for r in 0..n {
        let mpi = world.attach(r);
        mpis.lock().push(mpi.clone());
        let client = CkptClient::new(0);
        client.bind_runtime(mpi.clone());
        let blcr = LocalCheckpointer::with_store(store.clone(), spec.blcr.clone());
        let controller =
            Controller::new(r, job_name.clone(), mode, incremental, blcr.clone(), client.clone());
        controllers.lock().push(controller.clone());
        mpi.set_hook(controller.clone());

        let body = spec.body.clone();
        let world2 = world.clone();
        let ends = body_ends.clone();
        // Images are restored under the job name they were saved with; any
        // new checkpoints go under the coordinator's (possibly different)
        // job name.
        let restore = restore.clone();
        let rends = restore_ends.clone();
        let pid = h.spawn(format!("rank{r}"), move |p| {
            let restored = restore.map(|(job, epoch)| {
                // Restart storm: every rank reads its image back through the
                // shared storage model before computing.
                let image = blcr.restart(p, &job, epoch, r);
                let (app_state, mpi_state) = proto::decode_image_payload(image.app_state)
                    .expect("valid image payload");
                mpi.import_cr_state(p, mpi_state);
                rends.lock().push(p.now());
                app_state
            });
            body(RankCtx { p, mpi: mpi.clone(), world: world2, client, restored });
            ends.lock().push(p.now());
            // Tell the coordinator we are done, then keep servicing the
            // checkpoint protocol until released (a finished rank must
            // still participate passively in other groups' epochs). The
            // local flag is set first so a failover successor's RECONCILE
            // learns of the finish even if the FINISHED notice died with
            // the old coordinator.
            controller.mark_finished();
            mpi.oob_send(p, COORDINATOR_NODE, OobMsg::new(proto::FINISHED, 0, 0));
            while !controller.shutdown_requested() {
                mpi.poke(p);
                if controller.shutdown_requested() {
                    break;
                }
                mpi.wait_any_event(p);
            }
        });
        rank_pids.push(pid);
    }

    JobParts {
        world,
        store,
        coordinator,
        body_ends,
        restore_ends,
        controllers,
        mpis,
        rank_pids,
        n,
    }
}

pub(crate) fn run_job_full(
    spec: &JobSpec,
    ckpt: Option<CoordinatorCfg>,
    preload: Option<crate::restart::RestartSpec>,
    crash_at: Option<Time>,
    faults: Option<&FaultConfig>,
    trace: Option<TraceLevel>,
) -> SimResult<RunReport> {
    let mut sim = Sim::new(spec.seed);
    if let Some(level) = trace {
        sim.handle().tracer().set_level(level);
    }
    let parts = install_job(&sim.handle(), spec, ckpt, preload.as_ref(), None);
    let JobParts {
        ref world,
        ref store,
        ref coordinator,
        ref body_ends,
        ref controllers,
        ref rank_pids,
        n,
        ..
    } = parts;

    // Legacy whole-cluster crashes are expressed as a one-event fault plan
    // so both paths share the sink (and stay byte-identical: one `call_at`,
    // same kill order).
    assert!(
        crash_at.is_none() || faults.is_none(),
        "crash_at and faults are mutually exclusive"
    );
    let fault_cfg: Option<FaultConfig> = match crash_at {
        Some(t) => Some(FaultConfig { plan: FaultPlan::cluster_at(t), ..FaultConfig::none() }),
        None => faults.filter(|f| !f.is_noop()).cloned(),
    };
    let mut sink: Option<Arc<JobFaultSink>> = None;
    if let Some(f) = &fault_cfg {
        if let Some(torn) = f.torn.filter(|t| t.prob > 0.0) {
            store.set_write_fault_hook(Some(Arc::new(move |_client, name: &str| {
                torn.tears(name).then_some(WriteFault::Torn)
            })));
        }
        if let Some(torn) = f.torn_manifests.filter(|t| t.prob > 0.0) {
            store.set_meta_fault_hook(Some(Arc::new(move |_client, name: &str| {
                torn.tears(name).then_some(WriteFault::Torn)
            })));
        }
        let s = Arc::new(JobFaultSink {
            world: world.clone(),
            store: store.clone(),
            rank_pids: rank_pids.clone(),
            coord_pid: coordinator.proc_id(),
            body_ends: body_ends.clone(),
            n,
            detect_latency: f.detect_latency,
            killed: Mutex::new(Vec::new()),
            coordinator: coordinator.clone(),
            control: coordinator.control().clone(),
        });
        if !f.phase_faults.is_empty() {
            let phase_faults = PhaseFaults::new(f.phase_faults.clone());
            for (r, c) in controllers.lock().iter().enumerate() {
                let rank = r as u32;
                let pf = phase_faults.clone();
                let sink = s.clone();
                c.set_phase_hook(Some(Arc::new(move |p: &Proc, epoch, phase| {
                    match pf.take(rank, epoch, phase) {
                        Some(PhaseAction::Kill) => {
                            sink.node_kill(p.handle(), rank);
                            // The kill above flagged this very process; the
                            // park never returns — it unwinds here, i.e. on
                            // phase entry, before any protocol reply.
                            p.park();
                        }
                        Some(PhaseAction::Stall(d)) => {
                            p.handle().trace_instant(|| Event::FaultPhaseStall {
                                rank,
                                detail: format!("epoch {epoch} {phase:?} +{d}"),
                            });
                            p.sleep(d);
                        }
                        None => {}
                    }
                })));
            }
        }
        gbcr_faults::install(&sim.handle(), &f.plan, s.clone());
        sink = Some(s);
    }

    let sim_end = sim.run()?;
    let events = sim.events_processed();
    let elided_wakes = sim.wakes_elided();
    // All processes are done once `run` drains (a live one would have been
    // a Deadlock error); shutting down now, instead of at drop, puts the
    // teardown cost into the report.
    sim.shutdown();
    let executor = sim.executor_kind();
    let procs_spawned = sim.procs_spawned();
    let peak_live_procs = sim.peak_live_procs();
    let exec_threads = sim.exec_threads();
    let spawn_cost_ns = WallNanos(sim.spawn_cost_ns());
    let teardown_cost_ns = WallNanos(sim.teardown_cost_ns());
    let completion = parts.completion(sim_end);
    let rank_records = parts.rank_records();
    let channel_logged_bytes = parts.channel_logged_bytes();
    let (defer_stats, logged_bytes) = parts.defer_and_logged();
    let finished_ranks = parts.finished_ranks();
    let control = coordinator.control();
    let coordinator_lost =
        if finished_ranks < n { *control.coordinator_lost.lock() } else { None };
    let coordinator_kills = control.coordinator_kills.load(Ordering::Relaxed);
    let elections_held = control.elections_held.load(Ordering::Relaxed);
    let terms = control.term.load(Ordering::Relaxed);
    let heartbeats_missed = control.heartbeats_missed.load(Ordering::Relaxed);
    let leader_migrations = control.leader_migrations.load(Ordering::Relaxed);
    let time_to_new_leader = control.time_to_new_leader.load(Ordering::Relaxed);
    // The backend merges every target's (or node's) surviving objects into
    // one durable view, so restarts and manifest validation see failed-over
    // images and replica copies alike.
    let images = store.export_objects();
    let storage_stats = store.storage_stats();
    let restore_done = parts.restore_done();
    let trace_data = sim.handle().tracer().take();
    let phase_stats = gbcr_des::trace::phase_stats(&trace_data.spans);
    let trace = (!trace_data.is_empty()).then(|| Arc::new(trace_data));
    Ok(RunReport {
        completion,
        sim_end,
        epochs: coordinator.reports(),
        rank_records,
        net_stats: world.net_stats(),
        defer_stats,
        logged_bytes,
        channel_logged_bytes,
        images,
        events,
        elided_wakes,
        executor,
        procs_spawned,
        peak_live_procs,
        exec_threads,
        spawn_cost_ns,
        teardown_cost_ns,
        killed_ranks: sink.map(|s| s.killed.lock().clone()).unwrap_or_default(),
        finished_ranks,
        sends_to_failed: world.dropped_sends(),
        protocol_aborts: coordinator.protocol_aborts(),
        epoch_retries: coordinator.epoch_retries(),
        manifest_commits: storage_stats.manifest_commits,
        torn_manifests: storage_stats.torn_manifests,
        write_retries: store.write_retries(),
        failovers: store.failovers(),
        replicas_written: storage_stats.replicas_written,
        replica_bytes: storage_stats.replica_bytes,
        remote_recoveries: storage_stats.remote_recoveries,
        local_recoveries: storage_stats.local_recoveries,
        replica_losses: storage_stats.replica_losses,
        coordinator_kills,
        elections_held,
        terms,
        heartbeats_missed,
        leader_migrations,
        time_to_new_leader,
        coordinator_lost,
        restore_done,
        storage_stats,
        phase_stats,
        trace,
    })
}
