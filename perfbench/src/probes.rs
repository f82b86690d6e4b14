//! Layer probes: host nanoseconds per operation, timed from outside
//! around one layer's public functions. Each probe is shaped like the
//! workload whose cost it predicts, runs three times, and reports the
//! median together with its operation count.

use bytes::Bytes;
use gbcr_blcr::ProcessImage;
use gbcr_des::{time, ProcId, Sim};
use gbcr_mpi::{MpiConfig, Msg, World};
use gbcr_net::{Fabric, NetConfig, NodeId};
use gbcr_storage::{Storage, StorageConfig, StoredObject, MB};
use gbcr_workloads::MotifMinerWorkload;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One probe result.
pub struct Probe {
    /// Metric name.
    pub name: &'static str,
    /// Median over the repetitions.
    pub value: f64,
    /// Metric unit.
    pub unit: &'static str,
    /// Operations per repetition.
    pub ops: u64,
}

const REPS: usize = 3;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Time `REPS` repetitions of `f` (which returns its operation count) and
/// report the median nanoseconds per operation.
fn ns_per_op(name: &'static str, mut f: impl FnMut() -> u64) -> Probe {
    let mut per = Vec::with_capacity(REPS);
    let mut ops = 0;
    for _ in 0..REPS {
        let t = Instant::now();
        ops = f();
        per.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    Probe {
        name,
        value: median(per),
        unit: "ns",
        ops,
    }
}

/// DES dispatch: ten processes sleeping in a loop; one op is one
/// dispatched event.
fn des_dispatch(scale: u64) -> u64 {
    let mut sim = Sim::new(0);
    for i in 0..10u64 {
        sim.spawn(format!("p{i}"), move |p| {
            for _ in 0..100 * scale {
                p.sleep(time::us(i + 1));
            }
        });
    }
    sim.run().expect("dispatch probe");
    sim.events_processed()
}

/// Coroutine handoff: two processes alternate `park` and `wake`; one op is
/// one wake dispatched, resumed and parked again.
fn des_resume_park(scale: u64) -> u64 {
    let rounds = 500 * scale;
    let mut sim = Sim::new(0);
    let turn = Arc::new(AtomicU64::new(0));
    let a_pid: Arc<OnceLock<ProcId>> = Arc::new(OnceLock::new());
    let (t, a) = (turn.clone(), a_pid.clone());
    let b = sim.spawn("b", move |p| {
        for r in 0..rounds {
            while t.load(Ordering::Relaxed) != 2 * r + 1 {
                p.park();
            }
            t.store(2 * r + 2, Ordering::Relaxed);
            p.handle().wake(*a.get().expect("a spawned"));
        }
    });
    let t = turn.clone();
    let a = sim.spawn("a", move |p| {
        for r in 0..rounds {
            t.store(2 * r + 1, Ordering::Relaxed);
            p.handle().wake(b);
            while t.load(Ordering::Relaxed) != 2 * r + 2 {
                p.park();
            }
        }
    });
    a_pid.set(a).expect("set once");
    sim.run().expect("resume/park probe");
    2 * rounds
}

/// Slab timers: arm a callback and cancel it; the cancelled entry still
/// pops from the queue. One op is one arm + cancel + dead pop.
fn des_timer(scale: u64) -> u64 {
    let n = 20_000 * scale;
    let mut sim = Sim::new(0);
    sim.spawn("t", move |p| {
        for i in 0..n {
            let h = p.handle().call_at(p.now() + time::ms(1), |_| {});
            h.cancel();
            if i % 64 == 63 {
                p.sleep(time::us(1));
            }
        }
    });
    sim.run().expect("timer probe");
    n
}

/// Fabric ping-pong of eager-sized messages (4 KiB on the wire); one op is
/// one message sent and received.
fn net_eager(scale: u64) -> u64 {
    let rounds = 500 * scale;
    let mut sim = Sim::new(0);
    let fabric: Fabric<u64> = Fabric::new(sim.handle(), NetConfig::infiniband_ddr());
    let (e0, e1) = (fabric.endpoint(NodeId(0)), fabric.endpoint(NodeId(1)));
    sim.spawn("n0", move |p| {
        e0.connect(p, NodeId(1));
        for i in 0..rounds {
            e0.send(NodeId(1), i, 4 * 1024);
            black_box(e0.recv_wait(p));
        }
    });
    sim.spawn("n1", move |p| {
        for i in 0..rounds {
            black_box(e1.recv_wait(p));
            e1.send(NodeId(0), i, 4 * 1024);
        }
    });
    sim.run().expect("eager probe");
    2 * rounds
}

/// Fabric rendezvous shape: request-to-send, clear-to-send, then a 1 MiB
/// payload; one op is that three-message exchange.
fn net_rndv(scale: u64) -> u64 {
    let rounds = 300 * scale;
    let mut sim = Sim::new(0);
    let fabric: Fabric<u64> = Fabric::new(sim.handle(), NetConfig::infiniband_ddr());
    let (e0, e1) = (fabric.endpoint(NodeId(0)), fabric.endpoint(NodeId(1)));
    sim.spawn("n0", move |p| {
        e0.connect(p, NodeId(1));
        for i in 0..rounds {
            e0.send(NodeId(1), i, 64);
            black_box(e0.recv_wait(p));
            e0.send(NodeId(1), i, MB);
        }
    });
    sim.spawn("n1", move |p| {
        for i in 0..rounds {
            black_box(e1.recv_wait(p));
            e1.send(NodeId(0), i, 64);
            black_box(e1.recv_wait(p));
        }
    });
    sim.run().expect("rendezvous probe");
    rounds
}

/// Processor-sharing storage with `k` interleaved writers of `bytes` each,
/// `per` writes per writer; one op is one stream started and finished.
fn storage_ps(k: u32, per: u32, bytes: u64) -> u64 {
    let mut sim = Sim::new(0);
    let storage = Storage::new(sim.handle(), StorageConfig::paper_testbed());
    for i in 0..k {
        let s = storage.clone();
        sim.spawn(format!("w{i}"), move |p| {
            // Staggered starts so streams enter and leave one at a time.
            p.sleep(time::us(u64::from(i) * 37));
            for j in 0..per {
                s.write(p, i, &format!("o{i}.{j}"), StoredObject::bulk(bytes));
            }
        });
    }
    sim.run().expect("storage probe");
    u64::from(k) * u64::from(per)
}

/// MPI point-to-point ping-pong of a small message; one op is one round
/// trip.
fn mpi_pingpong(scale: u64) -> u64 {
    let rounds = 350 * scale;
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let (m0, m1) = (world.attach(0), world.attach(1));
    sim.spawn("r0", move |p| {
        for i in 0..rounds {
            m0.send(p, 1, 1, Msg::u64(i));
            black_box(m0.recv(p, Some(1), 2));
        }
    });
    sim.spawn("r1", move |p| {
        for i in 0..rounds {
            black_box(m1.recv(p, Some(0), 1));
            m1.send(p, 0, 2, Msg::u64(i));
        }
    });
    sim.run().expect("ping-pong probe");
    rounds
}

/// A 32-rank collective repeated `reps` times; one op is one collective
/// across all 32 ranks.
fn mpi_collective(reps: u64, bcast: bool) -> u64 {
    let n = 32;
    let exchange = MotifMinerWorkload::default().exchange_bytes;
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(n));
    let comm = world.world_comm();
    for r in 0..n {
        let (mpi, comm) = (world.attach(r), comm.clone());
        sim.spawn(format!("r{r}"), move |p| {
            for i in 0..reps {
                if bcast {
                    // HPL's pivot broadcast down a column: one f64.
                    let mine = (r == 0).then(|| Msg::f64(i as f64));
                    black_box(mpi.bcast(p, &comm, 0, mine));
                } else {
                    // MotifMiner's support-count exchange.
                    let mine = Msg::with_size(Bytes::from(i.to_le_bytes().to_vec()), exchange);
                    black_box(mpi.allgather(p, &comm, mine));
                }
            }
        });
    }
    sim.run().expect("collective probe");
    reps
}

/// The image the blcr probe encodes and decodes: the largest real image a
/// workload pass left on storage, else a 64 KiB synthetic one.
pub fn probe_image(largest_payload: Option<Bytes>) -> ProcessImage {
    largest_payload
        .and_then(|b| ProcessImage::decode(b).ok())
        .unwrap_or_else(|| ProcessImage {
            rank: 7,
            epoch: 3,
            taken_at: 123,
            footprint: 512 * MB,
            restore_extra: 0,
            app_state: Bytes::from(vec![0xAB; 64 * 1024]),
        })
}

/// Image codec throughput in MB/s of encoded bytes.
fn blcr(img: &ProcessImage, scale: u64) -> (Probe, Probe) {
    let encoded = img.encode();
    let len = encoded.len() as u64;
    let iters = ((16 * MB * scale / 10) / len.max(1)).clamp(16, 1_000_000);
    let mb_s = |name: &'static str, f: &dyn Fn()| {
        let mut rates = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            rates.push((len * iters) as f64 / 1e6 / t.elapsed().as_secs_f64());
        }
        Probe {
            name,
            value: median(rates),
            unit: "MB/s",
            ops: iters,
        }
    };
    let enc = mb_s("blcr.encode_mb_s", &|| {
        black_box(img.encode());
    });
    let dec = mb_s("blcr.decode_mb_s", &|| {
        black_box(ProcessImage::decode(encoded.clone()).expect("decodes"));
    });
    (enc, dec)
}

/// Run every probe. `scale` = 10 for the benchmark, 1 for the self-test.
pub fn run_all(scale: u64, image: &ProcessImage) -> Vec<Probe> {
    let s = scale;
    let mut out = vec![
        ns_per_op("des.dispatch_ns", || des_dispatch(s)),
        ns_per_op("des.resume_park_ns", || des_resume_park(s)),
        ns_per_op("des.timer_ns", || des_timer(s)),
        ns_per_op("net.eager_ns", || net_eager(s)),
        ns_per_op("net.rndv_ns", || net_rndv(s)),
        // k = 8: recovery's replicated writes; k = 32: the paper's ranks;
        // k = 1024: the scale study's All(1024) storm of 180 MB images.
        ns_per_op("storage.ps_ns.k8", || storage_ps(8, 50 * s as u32, 64 * MB)),
        ns_per_op("storage.ps_ns.k32", || {
            storage_ps(32, 12 * s as u32, 128 * MB)
        }),
        ns_per_op("storage.ps_ns.k1024", || {
            storage_ps(1024, s.div_ceil(5) as u32, 180 * MB)
        }),
        ns_per_op("mpi.pingpong_ns", || mpi_pingpong(s)),
        ns_per_op("mpi.allgather32_ns", || {
            mpi_collective((3 * s).div_ceil(10), false)
        }),
        ns_per_op("mpi.bcast32_ns", || mpi_collective(40 * s, true)),
    ];
    let (enc, dec) = blcr(image, s);
    out.push(enc);
    out.push(dec);
    out
}
