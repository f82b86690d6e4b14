//! The global C/R coordinator (the `mpirun` console process).

use crate::controller::CkptMode;
use crate::election::{self, ControlPlane, ElectionCfg};
use crate::group::{Formation, GroupPlan};
use crate::proto;
use gbcr_blcr::codec::fnv1a;
use gbcr_blcr::ProcessImage;
use gbcr_des::{ArgValue, Event, Proc, SimHandle, Time, Track};
use gbcr_mpi::{OobMsg, Rank, World, COORDINATOR_NODE};
use gbcr_net::{Endpoint, NodeId};
use gbcr_storage::{CheckpointStore, StoredObject};
use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// When checkpoints are requested (issuance/placement times, §5).
#[derive(Debug, Clone, Default)]
pub struct CkptSchedule {
    /// Absolute virtual times at which to take a global checkpoint.
    pub at: Vec<Time>,
}

impl CkptSchedule {
    /// No checkpoints (baseline runs).
    pub fn none() -> Self {
        Self::default()
    }

    /// One checkpoint at `t`.
    pub fn once(t: Time) -> Self {
        CkptSchedule { at: vec![t] }
    }
}

/// Per-phase protocol deadlines. `None` disables the deadline for that
/// phase: the coordinator parks unboundedly exactly as it did before
/// deadlines existed, so a default config arms no timers and changes no
/// events — fault-free runs stay byte-identical.
///
/// A tripped deadline makes the coordinator broadcast `ABORT_EPOCH`: ranks
/// roll back to running state, the previous manifest stays authoritative,
/// and the epoch is retried. Only a *confirmed-dead* node (the failure
/// detector's job) escalates to the supervisor — the abort-acknowledgement
/// collection deliberately has no deadline, so a dead rank leaves the
/// coordinator parked until the detector kills the job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseDeadlines {
    /// Budget for step 1: traffic query (dynamic formation), `EPOCH_BEGIN`
    /// broadcast, and collecting every rank's `EPOCH_BEGIN_ACK`.
    pub begin: Option<Time>,
    /// Budget for one group's turn in step 2: gate closure ACKs plus every
    /// member's `RANK_DONE` (the local checkpoints — size this to the
    /// expected image-write time, not the OOB round-trip).
    pub group: Option<Time>,
    /// Budget for step 3: collecting every rank's `EPOCH_END_ACK`.
    pub end: Option<Time>,
}

impl PhaseDeadlines {
    /// No deadlines (the pre-existing park-forever behavior).
    pub fn none() -> Self {
        Self::default()
    }

    /// The same budget on the begin and end phases with a separate, larger
    /// one for the checkpoint-carrying group phase.
    pub fn new(ack_budget: Time, group_budget: Time) -> Self {
        PhaseDeadlines {
            begin: Some(ack_budget),
            group: Some(group_budget),
            end: Some(ack_budget),
        }
    }
}

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorCfg {
    /// Job name (namespaces the checkpoint images).
    pub job: String,
    /// Buffering (the paper) or Logging (ablation).
    pub mode: CkptMode,
    /// Group formation policy.
    pub formation: Formation,
    /// Issuance times.
    pub schedule: CkptSchedule,
    /// Incremental checkpointing (§8 future work, implemented as an
    /// extension): after a rank's first full image in a job, later images
    /// only write the bytes the application reported dirty since the
    /// previous checkpoint; restores read the image plus its chain.
    pub incremental: bool,
    /// Per-phase protocol deadlines (grouped modes only); the default arms
    /// nothing.
    pub deadlines: PhaseDeadlines,
    /// Survivable-control-plane configuration. The default
    /// ([`ElectionCfg::disabled`]) spawns no standby/lease machinery and
    /// reproduces the static coordinator byte-for-byte.
    pub election: ElectionCfg,
}

/// Outcome of one global checkpoint epoch.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch number (0-based).
    pub epoch: u64,
    /// When the checkpoint was requested.
    pub requested_at: Time,
    /// When the coordinator began orchestrating (after any traffic query).
    pub started_at: Time,
    /// When the last member reported its image durable — the end point of
    /// the paper's *Total Checkpoint Time*.
    pub all_ranks_done_at: Time,
    /// When the epoch-end acknowledgements completed.
    pub finished_at: Time,
    /// `(rank, Individual Checkpoint Time)` sorted by rank.
    pub individuals: Vec<(Rank, Time)>,
    /// The group plan used.
    pub plan: GroupPlan,
}

impl EpochReport {
    /// The paper's *Total Checkpoint Time*: request issue → all processes
    /// finished taking their checkpoints.
    pub fn total_time(&self) -> Time {
        self.all_ranks_done_at - self.requested_at
    }

    /// Mean of the per-rank *Individual Checkpoint Times*.
    pub fn mean_individual(&self) -> Time {
        if self.individuals.is_empty() {
            return 0;
        }
        self.individuals.iter().map(|(_, t)| t).sum::<Time>() / self.individuals.len() as Time
    }

    /// Largest per-rank *Individual Checkpoint Time*.
    pub fn max_individual(&self) -> Time {
        self.individuals.iter().map(|(_, t)| *t).max().unwrap_or(0)
    }
}

/// Protocol-recovery counters, shared with the spawned coordinator body
/// (and, under failover, every successor body) so they stay readable after
/// a coordinator dies mid-protocol.
#[derive(Debug, Default)]
pub(crate) struct CoordCounters {
    pub(crate) protocol_aborts: AtomicU64,
    pub(crate) epoch_retries: AtomicU64,
}

/// Handle to a spawned coordinator; epoch reports land here as they finish.
#[derive(Clone)]
pub struct Coordinator {
    reports: Arc<Mutex<Vec<EpochReport>>>,
    counters: Arc<CoordCounters>,
    pid: gbcr_des::ProcId,
    control: Arc<ControlPlane>,
}

impl Coordinator {
    /// Spawn the coordinator process into the simulation. It connects to
    /// every rank's out-of-band endpoint, executes the configured schedule,
    /// and shuts the ranks' service loops down once all have finished.
    /// `storage` is the checkpoint-store backend epoch manifests are
    /// committed through (the same backend the ranks write their images
    /// to).
    pub fn spawn(
        handle: &SimHandle,
        world: &World,
        cfg: CoordinatorCfg,
        storage: Arc<dyn CheckpointStore>,
    ) -> Coordinator {
        let reports = Arc::new(Mutex::new(Vec::new()));
        let counters = Arc::new(CoordCounters::default());
        let control = ControlPlane::new(cfg.election);
        let out = reports.clone();
        let ctrs = counters.clone();
        let w = world.clone();
        let cfg2 = cfg.clone();
        let st = storage.clone();
        let cp_body = cfg.election.enabled.then(|| control.clone());
        let pid = handle.spawn("cr-coordinator", move |p| {
            let mut body = CoordBody::new(w, cfg2, st, ctrs, cp_body);
            body.run(p, &out);
        });
        *control.leader_pid.lock() = Some(pid);
        if control.enabled() {
            election::install(handle, world, &cfg, &storage, &counters, &reports, &control);
        }
        Coordinator { reports, counters, pid, control }
    }

    /// The coordinator's simulated process id (for failure injection).
    pub fn proc_id(&self) -> gbcr_des::ProcId {
        self.pid
    }

    /// Reports for all epochs completed so far (all of them, after `run`).
    pub fn reports(&self) -> Vec<EpochReport> {
        self.reports.lock().clone()
    }

    /// How many times a phase deadline tripped and the coordinator
    /// broadcast `ABORT_EPOCH`.
    pub fn protocol_aborts(&self) -> u64 {
        self.counters.protocol_aborts.load(Ordering::Relaxed)
    }

    /// How many epoch attempts were re-runs after an abort.
    pub fn epoch_retries(&self) -> u64 {
        self.counters.epoch_retries.load(Ordering::Relaxed)
    }

    /// The shared control-plane state (term, leader pid, robustness
    /// counters). Always present; inert when the election is disabled.
    pub(crate) fn control(&self) -> &Arc<ControlPlane> {
        &self.control
    }
}

/// Marker error: a phase deadline tripped inside `try_epoch`.
struct Stalled;

pub(crate) struct CoordBody {
    ep: Endpoint<OobMsg>,
    n: u32,
    world: World,
    cfg: CoordinatorCfg,
    storage: Arc<dyn CheckpointStore>,
    counters: Arc<CoordCounters>,
    /// The shared control plane, when failover is enabled (None keeps the
    /// static coordinator's behavior byte-identical).
    cp: Option<Arc<ControlPlane>>,
    stash: VecDeque<(NodeId, OobMsg)>,
    finished: HashSet<Rank>,
}

impl CoordBody {
    /// Build a coordinator body bound to the service address. Used both by
    /// the boot coordinator and by every failover winner.
    pub(crate) fn new(
        world: World,
        cfg: CoordinatorCfg,
        storage: Arc<dyn CheckpointStore>,
        counters: Arc<CoordCounters>,
        cp: Option<Arc<ControlPlane>>,
    ) -> Self {
        CoordBody {
            ep: world.oob_endpoint(COORDINATOR_NODE),
            n: world.size(),
            world,
            cfg,
            storage,
            counters,
            cp,
            stash: VecDeque::new(),
            finished: HashSet::new(),
        }
    }
    /// Send an OOB message to `r`, black-holing it if r's node has failed:
    /// the RC send to a dead HCA completes in error and the message is
    /// lost — the coordinator only learns of the death when the failure
    /// detector aborts the job.
    fn send_to(&self, r: Rank, msg: OobMsg, size: u64) {
        if self.world.is_failed(r) {
            self.world.note_dropped_send();
            return;
        }
        self.ep.send(NodeId(r), msg, size);
    }

    pub(crate) fn run(&mut self, p: &Proc, out: &Arc<Mutex<Vec<EpochReport>>>) {
        // Connect to every rank's OOB endpoint up front (job launch cost).
        for r in 0..self.n {
            self.ep.connect(p, NodeId(r));
        }
        self.run_from(p, out, 0, 0);
    }

    /// Execute the schedule from entry `start` onward (`start > 0` after a
    /// failover resumed past already-committed epochs). `pending_tries`
    /// seeds the first epoch's attempt counter so a takeover that aborted
    /// attempt `t` of a half-open epoch reruns it under the fresh word
    /// `t + 1`.
    fn run_from(
        &mut self,
        p: &Proc,
        out: &Arc<Mutex<Vec<EpochReport>>>,
        start: usize,
        mut pending_tries: u64,
    ) {
        let schedule = self.cfg.schedule.at.clone();
        for (i, &t) in schedule.iter().enumerate().skip(start) {
            self.wait_until(p, t);
            if self.finished.len() as u32 == self.n {
                break; // job already over; nothing to checkpoint
            }
            let first_tries = std::mem::take(&mut pending_tries);
            let report = match self.cfg.mode {
                CkptMode::ChandyLamport => self.run_cl_epoch(p, i as u64, t),
                CkptMode::Uncoordinated => self.run_uncoordinated_epoch(p, i as u64, t),
                _ => self.run_epoch(p, i as u64, t, first_tries),
            };
            out.lock().push(report);
        }
        // Wait for every rank to finish, then release their service loops.
        while self.finished.len() as u32 != self.n {
            let (from, msg) = self.recv_raw(p);
            self.sort_message(from, msg);
        }
        if let Some(cp) = &self.cp {
            // From here on a control-plane kill is a non-event: the job is
            // over, so the lease machinery stands down rather than electing
            // a successor for nothing.
            cp.finish();
        }
        for r in 0..self.n {
            self.send_to(r, OobMsg::new(proto::SHUTDOWN, 0, 0), 64);
        }
        if let Some(cp) = self.cp.clone() {
            self.stop_standbys(p, &cp);
        }
    }

    /// Resume the schedule as a freshly-elected coordinator (term
    /// `term`). The dead leader's bookkeeping is reconstructed from two
    /// sources of truth that survived it: the ranks (finished flags and
    /// any half-open epoch word, via a `RECONCILE` round) and storage (the
    /// newest committed epoch manifest). A half-open attempt is aborted
    /// through the ordinary `ABORT_EPOCH` machinery and retried under a
    /// fresh attempt word; fully-committed epochs are skipped.
    pub(crate) fn takeover_and_run(
        &mut self,
        p: &Proc,
        out: &Arc<Mutex<Vec<EpochReport>>>,
        term: u64,
    ) {
        // Adopt the service mailbox. Anything already queued there was
        // addressed to the dead coordinator; only FINISHED notices are
        // still meaningful (protocol replies belong to an attempt whose
        // collections died with their collector).
        while let Some((from, msg)) = self.ep.try_recv() {
            if msg.kind == proto::FINISHED {
                self.finished.insert(from.0);
            }
        }
        let failed = self.world.failed_ranks();
        let live: Vec<Rank> = (0..self.n).filter(|r| !failed.contains(r)).collect();
        for &r in &live {
            self.ep.connect(p, NodeId(r));
        }
        for &r in &live {
            self.send_to(r, OobMsg::new(proto::RECONCILE, term, 0), 64);
        }
        let mut open: Option<u64> = None;
        for _ in &live {
            let (from, msg) =
                self.recv_match(p, |_, m| m.kind == proto::RECONCILE_ACK && m.a == term);
            if msg.b == 1 {
                self.finished.insert(from.0);
            }
            if let Some(w) = proto::decode_reconcile_ack(msg.data).expect("valid reconcile ack") {
                open = Some(open.map_or(w, |o: u64| o.max(w)));
            }
        }
        // Storage is the other half of the truth: the newest committed
        // manifest bounds how far the schedule definitely got.
        let committed = (0..self.cfg.schedule.at.len() as u64)
            .filter(|&e| self.storage.peek(&proto::manifest_name(&self.cfg.job, e)).is_some())
            .max();
        let mut start = committed.map_or(0, |c| c + 1) as usize;
        let mut pending_tries = 0u64;
        if let Some(word) = open {
            let (epoch, tries) = proto::split_epoch(word);
            self.counters.protocol_aborts.fetch_add(1, Ordering::Relaxed);
            p.handle().trace_instant(|| Event::CkptAbort {
                epoch,
                reason: format!("coordinator failover (term {term})"),
            });
            self.abort_word(p, word, live.len() as u32);
            self.purge_epoch(epoch);
            start = epoch as usize;
            pending_tries = tries + 1;
        }
        self.run_from(p, out, start, pending_tries);
    }

    /// Release every surviving standby and the heartbeat emitter at the
    /// end of a failover-enabled run.
    fn stop_standbys(&mut self, p: &Proc, cp: &ControlPlane) {
        for q in 0..self.n {
            if !self.world.is_failed(q) {
                self.ep.connect(p, gbcr_mpi::standby_node(q));
                self.ep.send(gbcr_mpi::standby_node(q), OobMsg::new(proto::STANDBY_STOP, 0, 0), 64);
            }
        }
        if let Some(hb) = cp.hb_pid.lock().take() {
            p.handle().kill(hb);
        }
    }

    /// One Chandy-Lamport epoch: announce, snapshot everyone at once
    /// (non-blocking), collect completions. No groups, no gates.
    fn run_cl_epoch(&mut self, p: &Proc, epoch: u64, requested_at: Time) -> EpochReport {
        let plan = GroupPlan::by_size(self.n, self.n);
        let started_at = p.now();
        let plan_bytes = proto::encode_plan(plan.group_map());
        for r in 0..self.n {
            let msg =
                OobMsg { kind: proto::EPOCH_BEGIN, a: epoch, b: 0, data: plan_bytes.clone() };
            let size = msg.wire_size();
            self.send_to(r, msg, size);
        }
        self.collect(p, proto::EPOCH_BEGIN_ACK, epoch, self.n);
        self.broadcast(proto::CL_SNAPSHOT, epoch, 0);
        let mut individuals: Vec<(Rank, Time)> = Vec::new();
        let mut all_ranks_done_at = started_at;
        for _ in 0..self.n {
            let (from, msg) =
                self.recv_match(p, |_, m| m.kind == proto::RANK_DONE && m.a == epoch);
            individuals.push((from.0, msg.b));
            all_ranks_done_at = p.now();
        }
        self.broadcast(proto::EPOCH_END, epoch, 0);
        self.collect(p, proto::EPOCH_END_ACK, epoch, self.n);
        individuals.sort_by_key(|(r, _)| *r);
        p.handle().trace_span(Track::Coordinator, "epoch", started_at, || {
            vec![
                ("epoch", ArgValue::U64(epoch)),
                ("groups", ArgValue::U64(1)),
                ("job", ArgValue::Str(self.cfg.job.clone())),
            ]
        });
        p.handle().trace_instant(|| Event::CkptEpochDone { epoch, groups: 1 });
        EpochReport {
            epoch,
            requested_at,
            started_at,
            all_ranks_done_at,
            finished_at: p.now(),
            individuals,
            plan,
        }
    }

    /// One "epoch" of uncoordinated checkpointing: each rank snapshots
    /// independently at a staggered offset (emulating per-rank local
    /// timers). No gates, no consistency — the images do NOT form a
    /// consistent global checkpoint; this mode exists for the §2.1
    /// failure-free-overhead comparison.
    fn run_uncoordinated_epoch(&mut self, p: &Proc, epoch: u64, requested_at: Time) -> EpochReport {
        let plan = GroupPlan::by_size(self.n, 1);
        let started_at = p.now();
        // Rank r's "local timer" fires at requested_at + r·stagger.
        let stagger = gbcr_des::time::secs(2);
        let mut individuals: Vec<(Rank, Time)> = Vec::new();
        let mut all_ranks_done_at = started_at;
        for r in 0..self.n {
            self.wait_until(p, requested_at + u64::from(r) * stagger);
            self.send_to(r, OobMsg::new(proto::UNCOORD_GO, epoch, 0), 64);
        }
        for _ in 0..self.n {
            let (from, msg) =
                self.recv_match(p, |_, m| m.kind == proto::RANK_DONE && m.a == epoch);
            individuals.push((from.0, msg.b));
            all_ranks_done_at = p.now();
        }
        individuals.sort_by_key(|(r, _)| *r);
        let groups = plan.group_count() as u64;
        p.handle().trace_span(Track::Coordinator, "epoch", started_at, || {
            vec![
                ("epoch", ArgValue::U64(epoch)),
                ("groups", ArgValue::U64(groups)),
                ("job", ArgValue::Str(self.cfg.job.clone())),
            ]
        });
        p.handle().trace_instant(|| Event::CkptEpochDone { epoch, groups });
        EpochReport {
            epoch,
            requested_at,
            started_at,
            all_ranks_done_at,
            finished_at: p.now(),
            individuals,
            plan,
        }
    }

    /// One global checkpoint epoch (§3.2's three steps), retried through
    /// `ABORT_EPOCH` whenever a phase deadline trips. Each attempt tags its
    /// messages with a distinct epoch word so stale replies from aborted
    /// attempts can never satisfy a later attempt's collection.
    fn run_epoch(
        &mut self,
        p: &Proc,
        epoch: u64,
        requested_at: Time,
        start_tries: u64,
    ) -> EpochReport {
        let mut tries = start_tries;
        loop {
            match self.try_epoch(p, epoch, requested_at, tries) {
                Ok(report) => return report,
                Err(Stalled) => {
                    self.counters.protocol_aborts.fetch_add(1, Ordering::Relaxed);
                    p.handle().trace_instant(|| Event::CkptAbort {
                        epoch,
                        reason: format!("phase deadline tripped (try {tries})"),
                    });
                    self.abort_epoch(p, epoch, tries);
                    tries += 1;
                }
            }
        }
    }

    /// One attempt at an epoch. Returns `Err(Stalled)` if any configured
    /// phase deadline trips before its collection completes.
    fn try_epoch(
        &mut self,
        p: &Proc,
        epoch: u64,
        requested_at: Time,
        tries: u64,
    ) -> Result<EpochReport, Stalled> {
        if tries > 0 {
            self.counters.epoch_retries.fetch_add(1, Ordering::Relaxed);
        }
        let word = proto::epoch_word(epoch, tries);
        let deadlines = self.cfg.deadlines;
        let t_epoch = p.now();
        // Under failover, groups re-form over the survivors: dead ranks
        // are carved out into singleton groups nobody gates on or waits
        // for, and every collection expects replies from the living only.
        // With the election disabled `failed` stays empty and every count
        // below is exactly the historical `n`.
        let failed = if self.cfg.election.enabled { self.world.failed_ranks() } else { Vec::new() };
        let expect = self.n - failed.len() as u32;

        // Step 1: divide processes into groups and decide the order.
        let begin_by = deadlines.begin.map(|d| p.now() + d);
        let plan = match &self.cfg.formation {
            Formation::Dynamic { .. } => {
                self.broadcast(proto::TRAFFIC_QUERY, word, 0);
                let mut traffic: Vec<crate::group::TrafficRows> = vec![Vec::new(); self.n as usize];
                for _ in 0..expect {
                    let (from, msg) = self.recv_match_by(p, begin_by, |_, m| {
                        m.kind == proto::TRAFFIC_REPLY && m.a == word
                    })?;
                    traffic[from.0 as usize] =
                        proto::decode_traffic(msg.data).expect("valid traffic payload");
                }
                GroupPlan::from_formation(self.n, &self.cfg.formation, Some(&traffic))
            }
            f => GroupPlan::from_formation(self.n, f, None),
        };
        let plan = if failed.is_empty() { plan } else { plan.reform(&failed) };
        let started_at = p.now();
        let plan_bytes = proto::encode_plan(plan.group_map());
        for r in 0..self.n {
            let msg =
                OobMsg { kind: proto::EPOCH_BEGIN, a: word, b: 0, data: plan_bytes.clone() };
            let size = msg.wire_size();
            self.send_to(r, msg, size);
        }
        self.collect_by(p, proto::EPOCH_BEGIN_ACK, word, expect, begin_by)?;
        p.handle().trace_span(Track::Coordinator, "phase.begin", t_epoch, || {
            vec![
                ("epoch", ArgValue::U64(epoch)),
                ("try", ArgValue::U64(tries)),
                ("job", ArgValue::Str(self.cfg.job.clone())),
            ]
        });

        // Step 2: the groups take checkpoints in turn.
        let mut individuals: Vec<(Rank, Time)> = Vec::new();
        let mut all_ranks_done_at = started_at;
        for (g, members) in plan.groups().iter().enumerate() {
            let group_by = deadlines.group.map(|d| p.now() + d);
            let t_gate = p.now();
            // Close every rank's gate toward (and from) this group before
            // any member freezes.
            self.broadcast(proto::GROUP_START, word, g as u64);
            self.collect_by(p, proto::GROUP_START_ACK, word, expect, group_by)?;
            p.handle().trace_span(Track::Coordinator, "phase.group_start", t_gate, || {
                vec![
                    ("group", ArgValue::U64(g as u64)),
                    ("job", ArgValue::Str(self.cfg.job.clone())),
                ]
            });
            let t_ckpt = p.now();
            let live_members: Vec<Rank> =
                members.iter().copied().filter(|m| !failed.contains(m)).collect();
            for &m in &live_members {
                self.send_to(m, OobMsg::new(proto::GROUP_GO, word, g as u64), 64);
            }
            for _ in &live_members {
                let (from, msg) = self.recv_match_by(p, group_by, |_, m| {
                    m.kind == proto::RANK_DONE && m.a == word
                })?;
                individuals.push((from.0, msg.b));
                all_ranks_done_at = p.now();
            }
            p.handle().trace_span(Track::Coordinator, "phase.checkpoint", t_ckpt, || {
                vec![
                    ("group", ArgValue::U64(g as u64)),
                    ("members", ArgValue::U64(members.len() as u64)),
                    ("job", ArgValue::Str(self.cfg.job.clone())),
                ]
            });
            let t_done = p.now();
            self.broadcast(proto::GROUP_DONE, word, g as u64);
            p.handle().trace_span(Track::Coordinator, "phase.group_done", t_done, || {
                vec![
                    ("group", ArgValue::U64(g as u64)),
                    ("job", ArgValue::Str(self.cfg.job.clone())),
                ]
            });
        }

        // Step 3: mark the global checkpoint complete.
        let end_by = deadlines.end.map(|d| p.now() + d);
        let t_end = p.now();
        self.broadcast(proto::EPOCH_END, word, 0);
        self.collect_by(p, proto::EPOCH_END_ACK, word, expect, end_by)?;
        p.handle().trace_span(Track::Coordinator, "phase.end", t_end, || {
            vec![
                ("epoch", ArgValue::U64(epoch)),
                ("job", ArgValue::Str(self.cfg.job.clone())),
            ]
        });

        // Two-phase commit, phase 2: every rank has ACKed its image
        // durable, so atomically publish the epoch's manifest. Zero
        // simulated time, and no park between here and the caller pushing
        // the report — a kill can never separate "manifest visible" from
        // "epoch reported", which keeps manifest-based restore selection
        // exactly as strong as the old image scan.
        let t_commit = p.now();
        self.commit_manifest(p, epoch);
        p.handle().trace_span(Track::Coordinator, "manifest.commit", t_commit, || {
            vec![
                ("epoch", ArgValue::U64(epoch)),
                ("job", ArgValue::Str(self.cfg.job.clone())),
            ]
        });

        individuals.sort_by_key(|(r, _)| *r);
        let groups = plan.group_count() as u64;
        p.handle().trace_span(Track::Coordinator, "epoch", t_epoch, || {
            vec![
                ("epoch", ArgValue::U64(epoch)),
                ("groups", ArgValue::U64(groups)),
                ("try", ArgValue::U64(tries)),
                ("job", ArgValue::Str(self.cfg.job.clone())),
            ]
        });
        p.handle().trace_instant(|| Event::CkptEpochDone { epoch, groups });
        Ok(EpochReport {
            epoch,
            requested_at,
            started_at,
            all_ranks_done_at,
            finished_at: p.now(),
            individuals,
            plan,
        })
    }

    /// Roll every rank back to running state after a tripped deadline.
    /// Collecting the abort ACKs has **no deadline**: every live rank will
    /// eventually answer (stalls are finite), and a dead one parks us here
    /// until the failure detector escalates to the supervisor — exactly
    /// the escalation split the protocol wants.
    fn abort_epoch(&mut self, p: &Proc, epoch: u64, tries: u64) {
        let word = proto::epoch_word(epoch, tries);
        let expect = if self.cfg.election.enabled {
            self.n - self.world.failed_ranks().len() as u32
        } else {
            self.n
        };
        self.abort_word(p, word, expect);
        // Drop stale replies of the aborted attempt: nothing matching this
        // epoch may leak into the next attempt's collections.
        self.purge_epoch(epoch);
    }

    /// Broadcast `ABORT_EPOCH` for one attempt word and collect `expect`
    /// acknowledgements (the live ranks). Shared by deadline-tripped
    /// aborts and the failover takeover's half-open-epoch abort.
    fn abort_word(&mut self, p: &Proc, word: u64, expect: u32) {
        self.broadcast(proto::ABORT_EPOCH, word, 0);
        self.collect(p, proto::ABORT_ACK, word, expect);
    }

    /// Discard stashed protocol replies belonging to any attempt of
    /// `epoch`.
    fn purge_epoch(&mut self, epoch: u64) {
        self.stash.retain(|(_, m)| {
            let protocol_reply = matches!(
                m.kind,
                proto::EPOCH_BEGIN_ACK
                    | proto::GROUP_START_ACK
                    | proto::RANK_DONE
                    | proto::EPOCH_END_ACK
                    | proto::TRAFFIC_REPLY
                    | proto::ABORT_ACK
            );
            !(protocol_reply && proto::split_epoch(m.a).0 == epoch)
        });
    }

    /// Two-phase commit, phase 2: write the epoch's manifest (rank → image
    /// name/size/checksum) through storage. Skipped silently if any image
    /// is missing (torn or lost write): the epoch then simply never
    /// becomes a restart point, exactly like a torn image under the old
    /// scan.
    fn commit_manifest(&mut self, p: &Proc, epoch: u64) {
        let mut entries: Vec<proto::ManifestEntry> = Vec::with_capacity(self.n as usize);
        for r in 0..self.n {
            let name = ProcessImage::object_name(&self.cfg.job, epoch, r);
            match self.storage.peek(&name) {
                Some(obj) => entries.push((r, obj.virtual_size, fnv1a(&obj.payload))),
                None => {
                    p.handle().trace_instant(|| Event::CkptManifestSkip { epoch });
                    return;
                }
            }
        }
        let payload = proto::encode_manifest(epoch, &entries);
        let virtual_size = payload.len() as u64;
        self.storage.commit_meta(
            u32::MAX, // the coordinator is not a rank
            &proto::manifest_name(&self.cfg.job, epoch),
            StoredObject::new(payload, virtual_size),
        );
    }

    fn broadcast(&mut self, kind: u32, a: u64, b: u64) {
        for r in 0..self.n {
            self.send_to(r, OobMsg::new(kind, a, b), 64);
        }
    }

    /// Collect `count` messages of `kind` for epoch `a`.
    fn collect(&mut self, p: &Proc, kind: u32, a: u64, count: u32) {
        for _ in 0..count {
            self.recv_match(p, |_, m| m.kind == kind && m.a == a);
        }
    }

    /// Collect `count` messages of `kind` for epoch word `a`, failing if
    /// the absolute deadline `by` passes first.
    fn collect_by(
        &mut self,
        p: &Proc,
        kind: u32,
        a: u64,
        count: u32,
        by: Option<Time>,
    ) -> Result<(), Stalled> {
        for _ in 0..count {
            self.recv_match_by(p, by, |_, m| m.kind == kind && m.a == a)?;
        }
        Ok(())
    }

    /// FINISHED messages are folded into the `finished` set whenever seen;
    /// everything else goes to the stash for matching.
    fn sort_message(&mut self, from: NodeId, msg: OobMsg) {
        if msg.kind == proto::FINISHED {
            self.finished.insert(from.0);
        } else {
            self.stash.push_back((from, msg));
        }
    }

    fn recv_raw(&mut self, p: &Proc) -> (NodeId, OobMsg) {
        loop {
            if let Some(m) = self.ep.try_recv() {
                return m;
            }
            self.ep.register_waiter(p.id());
            p.park();
        }
    }

    fn recv_match(
        &mut self,
        p: &Proc,
        pred: impl FnMut(NodeId, &OobMsg) -> bool,
    ) -> (NodeId, OobMsg) {
        match self.recv_match_by(p, None, pred) {
            Ok(m) => m,
            Err(Stalled) => unreachable!("no deadline, so recv cannot stall"),
        }
    }

    /// Like `recv_match`, but gives up once the absolute deadline `by`
    /// passes. With `by = None` this is byte-identical to the undeadlined
    /// receive: no timer is armed and no extra events exist. A deadline
    /// wake that arrives after the matching message was already consumed is
    /// just a spurious wake to whatever receive runs next — every receive
    /// loops on its own predicate, so stale wakes are harmless.
    fn recv_match_by(
        &mut self,
        p: &Proc,
        by: Option<Time>,
        mut pred: impl FnMut(NodeId, &OobMsg) -> bool,
    ) -> Result<(NodeId, OobMsg), Stalled> {
        if let Some(i) = self.stash.iter().position(|(n, m)| pred(*n, m)) {
            return Ok(self.stash.remove(i).expect("index valid"));
        }
        loop {
            if let Some((from, msg)) = self.ep.try_recv() {
                if msg.kind == proto::FINISHED {
                    self.finished.insert(from.0);
                    continue;
                }
                if pred(from, &msg) {
                    return Ok((from, msg));
                }
                self.stash.push_back((from, msg));
                continue;
            }
            if let Some(d) = by {
                if p.now() >= d {
                    return Err(Stalled);
                }
                self.ep.register_waiter(p.id());
                p.handle().schedule_wake(d, p.id());
            } else {
                self.ep.register_waiter(p.id());
            }
            p.park();
        }
    }

    fn wait_until(&mut self, p: &Proc, t: Time) {
        loop {
            if p.now() >= t {
                return;
            }
            if let Some((from, msg)) = self.ep.try_recv() {
                self.sort_message(from, msg);
                continue;
            }
            self.ep.register_waiter(p.id());
            p.handle().schedule_wake(t, p.id());
            p.park();
        }
    }
}
