//! Submission-path regressions: the [`gbcr_core::JobSpec`] builder must
//! be a pure convenience over struct construction, and `restart_job`
//! must round-trip a crash through the [`gbcr_core::JobRunner`] restart
//! path.

use gbcr_core::{restart_job, CkptMode, CkptSchedule, CoordinatorCfg, Formation};
use gbcr_des::time;
use gbcr_storage::MB;
use gbcr_workloads::MicroBench;

fn mb() -> MicroBench {
    MicroBench {
        n: 4,
        comm_group_size: 2,
        footprint: 20 * MB,
        steps: 60,
        ..Default::default()
    }
}

fn cfg(group_size: u32, at: Vec<gbcr_des::Time>) -> CoordinatorCfg {
    CoordinatorCfg {
        job: "micro".into(),
        mode: CkptMode::Buffering,
        formation: Formation::Static { group_size },
        schedule: CkptSchedule { at },
        incremental: false,
        deadlines: gbcr_core::PhaseDeadlines::none(),
        election: Default::default(),
    }
}

#[test]
fn jobspec_builder_is_byte_identical_to_struct_construction() {
    // The builder must be a pure convenience: rebuilding a hand-filled
    // spec field by field through `JobSpec::builder` yields a run with a
    // byte-identical report.
    let spec = mb().job();
    let built = gbcr_core::JobSpec::builder(spec.name.clone(), spec.mpi.n, spec.body.clone())
        .seed(spec.seed)
        .mpi(spec.mpi.clone())
        .storage(spec.storage.clone())
        .write_retry(spec.write_retry.clone())
        .backend(spec.backend)
        .blcr(spec.blcr.clone())
        .build();
    let c = cfg(2, vec![time::secs(2)]);
    let old = spec.runner().ckpt(c.clone()).run().unwrap();
    let new = built.runner().ckpt(c).run().unwrap();
    assert_eq!(format!("{old:?}"), format!("{new:?}"));
}

#[test]
fn restart_runs_through_runner_restart_path() {
    // restart_job routes through the same runner
    // internals; a crash → restart round-trip must still complete and the
    // runner's RestartSpec handling must preserve the lost-nodes-then-
    // preload order (the footgun the runner now owns).
    let spec = mb().job();
    let c = cfg(4, vec![time::secs(2)]);
    let crashed = spec.runner().ckpt(c.clone()).crash_at(time::secs(4)).run().unwrap();
    let images =
        gbcr_core::extract_images(&crashed, "micro", 0, 4).expect("epoch 0 images");
    let restored = restart_job(
        &spec,
        Some(c),
        gbcr_core::RestartSpec {
            job: "micro".into(),
            epoch: 0,
            images,
            lost_nodes: Vec::new(),
        },
    )
    .unwrap();
    assert_eq!(restored.finished_ranks, 4);
}
