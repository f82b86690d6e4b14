//! Supervised execution: run a job under a checkpoint schedule, survive
//! injected failures by restarting from the last complete global
//! checkpoint, and repeat until the job finishes or the retry budget runs
//! out.
//!
//! This is the operational loop the paper's framework exists to enable
//! (and what the job-pause service of its reference \[23] automates): the
//! checkpointing system turns a fatal failure into a bounded amount of
//! recomputation. Two drivers share the machinery:
//!
//! * [`crate::SupervisedRunner::crashes`] — deterministic whole-cluster crashes
//!   at caller-chosen times (the original harness, kept for the
//!   crash-recovery experiments);
//! * [`crate::SupervisedRunner::stochastic`] — a stochastic fail-stop process
//!   from `gbcr-faults`: per-node exponential failure clocks pick a victim
//!   each attempt, the survivors are aborted after the detection latency,
//!   and the [`SupervisePolicy`] decides restart/backoff/give-up.
//!
//! Both are terminal states of the [`crate::JobRunner`] chain
//! (`spec.runner().ckpt(cfg).supervised(policy)`).

use crate::coordinator::CoordinatorCfg;
use crate::job::{run_job_full, JobSpec, RunReport};
use crate::restart::RestartSpec;
use gbcr_des::{time, SimError, SimResult, Time};
use gbcr_faults::{rng::mix64, FaultConfig, StochasticFaults, TornWrites};

/// One attempt within a supervised run.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// Crash/kill time injected into this attempt, if any.
    pub crashed_at: Option<Time>,
    /// Epoch the attempt started from (`None` = from scratch).
    pub restored_from: Option<u64>,
    /// Epochs completed during the attempt.
    pub epochs_completed: usize,
    /// Whether the application finished in this attempt.
    pub finished: bool,
    /// Ranks killed by fault injection during the attempt (empty for
    /// whole-cluster crashes and clean finishes).
    pub killed_ranks: Vec<u32>,
    /// Wall-clock this attempt contributed: `completion` when it finished,
    /// `sim_end` (kill + detection + teardown) when it crashed.
    pub wall: Time,
    /// Time the restart storm took this attempt (latest rank's image read
    /// plus state re-injection; 0 for cold starts). The backend comparison
    /// metric: reading replicas node-locally beats the shared central
    /// array here.
    pub restore_wall: Time,
}

/// Robustness counters accumulated across every attempt of a supervised
/// run: how hard the crash-consistency machinery had to work to bring the
/// job home.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Epoch attempts discarded because a coordinator phase deadline
    /// tripped.
    pub protocol_aborts: u64,
    /// Epoch attempts re-run after an abort.
    pub epoch_retries: u64,
    /// Per-epoch manifests durably committed.
    pub manifest_commits: u64,
    /// Manifest commits lost to the torn-manifest fault point.
    pub torn_manifests: u64,
    /// Checkpoint image writes retried after transient storage failures.
    pub write_retries: u64,
    /// Checkpoint image writes that failed over to a secondary target.
    pub failovers: u64,
    /// Image writes that ran full-length but never became visible.
    pub torn_writes: u64,
    /// Messages black-holed because their destination's node had failed.
    pub dropped_sends: u64,
    /// Remote replica copies written (replicated backend only).
    pub replicas_written: u64,
    /// Bytes carried by those replica copies.
    pub replica_bytes: u64,
    /// Restart reads served from a remote replica.
    pub remote_recoveries: u64,
    /// Restart reads served from the owner node's local copy.
    pub local_recoveries: u64,
    /// Replica copies destroyed by node crashes.
    pub replica_losses: u64,
    /// Coordinator-node kills injected across the attempts.
    pub coordinator_kills: u64,
    /// Failover elections contested by standbys.
    pub elections_held: u64,
    /// Highest control-plane term any attempt reached (1 = the boot
    /// coordinator was never replaced).
    pub terms: u64,
    /// Lease expiries observed by standbys.
    pub heartbeats_missed: u64,
    /// Successful coordinator migrations (elections won and taken over).
    pub leader_migrations: u64,
    /// Summed virtual time between a coordinator kill and its successor
    /// taking over.
    pub time_to_new_leader: Time,
}

impl RecoveryCounters {
    /// Fold another counter set into this one (fleet-level aggregation).
    pub fn merge(&mut self, other: &RecoveryCounters) {
        self.protocol_aborts += other.protocol_aborts;
        self.epoch_retries += other.epoch_retries;
        self.manifest_commits += other.manifest_commits;
        self.torn_manifests += other.torn_manifests;
        self.write_retries += other.write_retries;
        self.failovers += other.failovers;
        self.torn_writes += other.torn_writes;
        self.dropped_sends += other.dropped_sends;
        self.replicas_written += other.replicas_written;
        self.replica_bytes += other.replica_bytes;
        self.remote_recoveries += other.remote_recoveries;
        self.local_recoveries += other.local_recoveries;
        self.replica_losses += other.replica_losses;
        self.coordinator_kills += other.coordinator_kills;
        self.elections_held += other.elections_held;
        self.terms = self.terms.max(other.terms);
        self.heartbeats_missed += other.heartbeats_missed;
        self.leader_migrations += other.leader_migrations;
        self.time_to_new_leader += other.time_to_new_leader;
    }

    /// Fold one attempt's report into the running totals.
    pub fn absorb(&mut self, report: &RunReport) {
        self.protocol_aborts += report.protocol_aborts;
        self.epoch_retries += report.epoch_retries;
        self.manifest_commits += report.manifest_commits;
        self.torn_manifests += report.torn_manifests;
        self.write_retries += report.write_retries;
        self.failovers += report.failovers;
        self.torn_writes += report.storage_stats.torn_writes;
        self.dropped_sends += report.sends_to_failed;
        self.replicas_written += report.replicas_written;
        self.replica_bytes += report.replica_bytes;
        self.remote_recoveries += report.remote_recoveries;
        self.local_recoveries += report.local_recoveries;
        self.replica_losses += report.replica_losses;
        self.coordinator_kills += report.coordinator_kills;
        self.elections_held += report.elections_held;
        self.terms = self.terms.max(report.terms);
        self.heartbeats_missed += report.heartbeats_missed;
        self.leader_migrations += report.leader_migrations;
        self.time_to_new_leader += report.time_to_new_leader;
    }
}

/// Outcome of a supervised run ([`crate::SupervisedRunner::crashes`] /
/// [`crate::SupervisedRunner::stochastic`]).
#[derive(Debug, Clone)]
pub struct SupervisedReport {
    /// Every attempt, in order; the last one finished.
    pub attempts: Vec<Attempt>,
    /// The report of the final (successful) attempt.
    pub final_report: RunReport,
    /// Total wall-clock across all attempts, including restart backoff —
    /// the denominator of availability.
    pub total_wall: Time,
    /// Restart backoff inserted between attempts (included in
    /// `total_wall`).
    pub total_backoff: Time,
    /// Recovery-protocol counters summed over every attempt (including the
    /// failed ones the final report no longer sees).
    pub counters: RecoveryCounters,
}

impl SupervisedReport {
    /// Number of failures survived.
    pub fn failures_survived(&self) -> usize {
        self.attempts.len() - 1
    }
}

/// How a supervised run reacts to failures.
#[derive(Debug, Clone)]
pub struct SupervisePolicy {
    /// Give up (with [`SimError::RetriesExhausted`]) after this many
    /// attempts without a finish.
    pub max_attempts: usize,
    /// Wall-clock delay before the first restart (node replacement,
    /// re-queue). Grows by `backoff_factor` per consecutive failure.
    pub base_backoff: Time,
    /// Multiplier applied to the backoff after every failed attempt.
    pub backoff_factor: f64,
    /// Ceiling on the per-restart backoff.
    pub max_backoff: Time,
    /// When no complete epoch survives, restart from scratch instead of
    /// failing with [`SimError::NoRestartPoint`].
    pub cold_restart: bool,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy {
            max_attempts: 32,
            base_backoff: time::secs(5),
            backoff_factor: 2.0,
            max_backoff: time::secs(60),
            cold_restart: true,
        }
    }
}

impl SupervisePolicy {
    /// The policy the original crash-recovery harness used: restart
    /// immediately (no backoff), and treat a crash before the first
    /// complete checkpoint as fatal instead of cold-restarting.
    /// [`crate::SupervisedRunner`] callers pick it explicitly.
    pub fn immediate() -> Self {
        SupervisePolicy {
            base_backoff: 0,
            max_backoff: 0,
            cold_restart: false,
            ..SupervisePolicy::default()
        }
    }

    /// The backoff the supervisor inserts after the `k`-th failure
    /// (0-based), or `None` once the attempt budget is spent (failure `k`
    /// leaves no attempt to restart into — the supervisor gives up with
    /// [`SimError::RetriesExhausted`]). The first backoff is
    /// `base_backoff` as configured; each subsequent one is multiplied by
    /// `backoff_factor` and capped at `max_backoff` — the same advance the
    /// running loop applies.
    pub fn backoff_after_failure(&self, k: usize) -> Option<Time> {
        if k + 1 >= self.max_attempts {
            return None;
        }
        let mut b = self.base_backoff;
        for _ in 0..k {
            b = ((b as f64 * self.backoff_factor) as Time).min(self.max_backoff);
        }
        Some(b)
    }
}

/// Shared epilogue of a failed attempt: record it, pick the restart point
/// (or cold-restart / give up per policy), and advance the backoff.
struct FailureLoop {
    job: String,
    n: u32,
    policy: SupervisePolicy,
    attempts: Vec<Attempt>,
    restore: Option<RestartSpec>,
    total_wall: Time,
    total_backoff: Time,
    next_backoff: Time,
    counters: RecoveryCounters,
}

impl FailureLoop {
    fn new(job: String, n: u32, policy: SupervisePolicy) -> Self {
        let next_backoff = policy.base_backoff;
        FailureLoop {
            job,
            n,
            policy,
            attempts: Vec::new(),
            restore: None,
            total_wall: 0,
            total_backoff: 0,
            next_backoff,
            counters: RecoveryCounters::default(),
        }
    }

    /// Manifest-first restart-point selection: when the attempt committed
    /// any epoch manifest, only manifested epochs are trusted (a torn
    /// manifest demotes its epoch even if every image survived). Image
    /// sets without manifests — Chandy-Lamport and uncoordinated
    /// snapshots — keep the bare image scan.
    fn pick_restore(&self, report: &RunReport) -> SimResult<Option<RestartSpec>> {
        let (epoch, images) = if report.has_manifests(&self.job) {
            match report.last_manifested_epoch(&self.job, self.n) {
                Some(e) => (
                    e,
                    crate::restart::extract_images_manifested(report, &self.job, e, self.n)?,
                ),
                None => return Ok(None),
            }
        } else {
            match report.last_complete_epoch(&self.job, self.n) {
                Some(e) => (e, crate::restart::extract_images(report, &self.job, e, self.n)?),
                None => return Ok(None),
            }
        };
        // The crashed attempt's dead nodes come up empty on per-node
        // backends: the restart harness wipes them before preloading, so
        // their ranks recover from surviving replicas.
        Ok(Some(RestartSpec {
            job: self.job.clone(),
            epoch,
            images,
            lost_nodes: report.killed_ranks.clone(),
        }))
    }

    fn after_failure(&mut self, report: &RunReport, crashed_at: Time) -> SimResult<()> {
        self.total_wall += report.sim_end;
        self.counters.absorb(report);
        self.attempts.push(Attempt {
            crashed_at: Some(crashed_at),
            restored_from: self.restore.as_ref().map(|r| r.epoch),
            epochs_completed: report.epochs.len(),
            finished: false,
            killed_ranks: report.killed_ranks.clone(),
            wall: report.sim_end,
            restore_wall: report.restore_done,
        });
        match self.pick_restore(report)? {
            Some(restore) => {
                self.restore = Some(restore);
            }
            // No epoch completed during *this* attempt, but an earlier one
            // produced a restart point: keep it — recovery never regresses
            // to a cold restart once any checkpoint is durable.
            None if self.restore.is_some() => {}
            None if self.policy.cold_restart => self.restore = None,
            // A dead control plane with no restart point is its own typed
            // failure: the run lost its coordinator (static plane, or a
            // failover that never completed) before any checkpoint became
            // durable, and the policy forbids a cold restart.
            None => {
                if let Some((term, epoch)) = report.coordinator_lost {
                    return Err(SimError::CoordinatorLost { term, epoch });
                }
                return Err(SimError::NoRestartPoint {
                    job: self.job.clone(),
                    detail: format!(
                        "attempt {}: crash at {} preceded the first complete checkpoint",
                        self.attempts.len() - 1,
                        time::fmt(crashed_at)
                    ),
                });
            }
        }
        self.total_backoff += self.next_backoff;
        self.total_wall += self.next_backoff;
        self.next_backoff = ((self.next_backoff as f64 * self.policy.backoff_factor) as Time)
            .min(self.policy.max_backoff);
        Ok(())
    }

    fn finish(mut self, report: RunReport) -> SupervisedReport {
        self.total_wall += report.completion;
        self.counters.absorb(&report);
        self.attempts.push(Attempt {
            crashed_at: None,
            restored_from: self.restore.as_ref().map(|r| r.epoch),
            epochs_completed: report.epochs.len(),
            finished: true,
            killed_ranks: Vec::new(),
            wall: report.completion,
            restore_wall: report.restore_done,
        });
        SupervisedReport {
            attempts: self.attempts,
            final_report: report,
            total_wall: self.total_wall,
            total_backoff: self.total_backoff,
            counters: self.counters,
        }
    }
}

/// Run `spec` under `ckpt`, injecting a whole-cluster failure at each time
/// in `crash_at` (one per attempt, applied in order). After each crash the
/// job restarts from the most recent complete epoch (carrying images
/// forward across attempts); the final attempt runs to completion.
///
/// Fails with [`SimError::NoRestartPoint`] if a crash happens before the
/// first epoch ever completes and `policy` forbids cold restarts (there
/// is nothing to restart from — exactly the exposure window the paper's
/// Total Checkpoint Time measures). The engine behind
/// [`crate::SupervisedRunner::crashes`].
pub(crate) fn supervised_crashes(
    spec: &JobSpec,
    ckpt: CoordinatorCfg,
    crash_at: &[Time],
    policy: SupervisePolicy,
) -> SimResult<SupervisedReport> {
    let mut lp = FailureLoop::new(ckpt.job.clone(), spec.mpi.n, policy);
    for &t in crash_at {
        let report =
            run_job_full(spec, Some(ckpt.clone()), lp.restore.clone(), Some(t), None, None)?;
        lp.after_failure(&report, t)?;
    }
    // Final attempt: no crash.
    let final_report = run_job_full(spec, Some(ckpt), lp.restore.clone(), None, None, None)?;
    Ok(lp.finish(final_report))
}

/// Run `spec` under `ckpt` against a stochastic fail-stop process: each
/// attempt draws its own fault plan from `faults` (per-node exponential
/// kill clocks, optional link flaps and torn image writes), restarts from
/// the last complete epoch per `policy` until the job finishes, and gives
/// up with [`SimError::RetriesExhausted`] once `policy.max_attempts` is
/// spent. The engine behind [`crate::SupervisedRunner::stochastic`].
///
/// Fully deterministic in `(spec.seed, faults.seed)`: two calls with
/// identical inputs produce byte-identical reports.
pub(crate) fn supervised_stochastic(
    spec: &JobSpec,
    ckpt: CoordinatorCfg,
    faults: &StochasticFaults,
    policy: &SupervisePolicy,
) -> SimResult<SupervisedReport> {
    let n = spec.mpi.n;
    let mut lp = FailureLoop::new(ckpt.job.clone(), n, policy.clone());
    for attempt in 0..policy.max_attempts {
        let (plan, (kill_at, _victim)) = faults.attempt_plan(attempt as u64, n);
        let torn = (faults.torn_write_prob > 0.0).then(|| TornWrites {
            // Mix the attempt in so a retried epoch is not doomed to tear
            // the same image forever.
            seed: faults.seed ^ mix64(attempt as u64 + 1),
            prob: faults.torn_write_prob,
        });
        let torn_manifests = (faults.torn_manifest_prob > 0.0).then(|| TornWrites {
            // A distinct stream from image tears so the two fault points
            // are independent draws.
            seed: mix64(faults.seed) ^ mix64(attempt as u64 + 1),
            prob: faults.torn_manifest_prob,
        });
        let cfg = FaultConfig {
            plan,
            detect_latency: faults.detect_latency,
            torn,
            torn_manifests,
            phase_faults: Vec::new(),
        };
        let report =
            run_job_full(spec, Some(ckpt.clone()), lp.restore.clone(), None, Some(&cfg), None)?;
        if report.finished_ranks == n {
            // The kill draw landed past completion: the job beat the
            // failure process this attempt.
            return Ok(lp.finish(report));
        }
        lp.after_failure(&report, kill_at)?;
    }
    Err(SimError::RetriesExhausted { attempts: policy.max_attempts })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_backoff_doubles_then_saturates_at_cap() {
        let p = SupervisePolicy::default();
        let schedule: Vec<Time> =
            (0..6).map(|k| p.backoff_after_failure(k).unwrap()).collect();
        assert_eq!(
            schedule,
            vec![
                time::secs(5),
                time::secs(10),
                time::secs(20),
                time::secs(40),
                time::secs(60),
                time::secs(60),
            ]
        );
        // Far past the knee the cap still holds exactly.
        assert_eq!(p.backoff_after_failure(25), Some(time::secs(60)));
    }

    #[test]
    fn fractional_factor_rounds_down_like_the_loop() {
        let p = SupervisePolicy {
            base_backoff: 1000,
            backoff_factor: 1.5,
            max_backoff: 5000,
            ..SupervisePolicy::default()
        };
        assert_eq!(p.backoff_after_failure(0), Some(1000));
        assert_eq!(p.backoff_after_failure(1), Some(1500));
        assert_eq!(p.backoff_after_failure(2), Some(2250));
        assert_eq!(p.backoff_after_failure(3), Some(3375));
        assert_eq!(p.backoff_after_failure(4), Some(5000), "capped");
    }

    #[test]
    fn budget_exhaustion_gives_up_instead_of_backing_off() {
        let p = SupervisePolicy { max_attempts: 3, ..SupervisePolicy::default() };
        // Failures 0 and 1 leave attempts to restart into; failure 2 spends
        // the third and final attempt.
        assert!(p.backoff_after_failure(0).is_some());
        assert!(p.backoff_after_failure(1).is_some());
        assert_eq!(p.backoff_after_failure(2), None);
        let one_shot = SupervisePolicy { max_attempts: 1, ..SupervisePolicy::default() };
        assert_eq!(one_shot.backoff_after_failure(0), None, "no retry budget at all");
    }
}
