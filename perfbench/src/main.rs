//! The repository benchmark: end-to-end and per-layer cost of the gbcr
//! simulator on two workloads (`paper`, `recovery`). See
//! `README.md` next to this crate for the workloads, metric glossary and
//! which metric each layer should move.
//!
//! ```text
//! perfbench --workload <paper|recovery> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --self-test
//! perfbench --write-golden
//! perfbench --workload <paper|recovery> --setup-only
//! ```
//!
//! `--setup-only` makes one cold set-up and prints its time; a run starts
//! itself that way to time the set-ups `setup_s` is the median of.
//!
//! `--seed` is accepted and echoed: every workload is deterministic and a
//! pass always issues the same operations in canonical order.
//!
//! A run prints a human-readable report, then as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, with `--trace 1` the
//! per-layer set.

mod golden;
mod host;
mod layer;
mod probes;
mod workload;

use layer::Metric;
use std::time::Instant;
use workload::{Outcome, Pass, Plan, Size, Workload};

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("events", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 43] = [
    ("des.dispatch_ns", "ns"),
    ("des.resume_park_ns", "ns"),
    ("des.timer_ns", "ns"),
    ("des.events", "count"),
    ("des.elided_wakes", "count"),
    ("des.procs_spawned", "count"),
    ("des.peak_live_procs", "count"),
    ("des.wake_events", "count"),
    ("des.timer_events", "count"),
    ("des.call_events", "count"),
    ("des.spawn_ms", "ms"),
    ("des.teardown_ms", "ms"),
    ("net.eager_ns", "ns"),
    ("net.rndv_ns", "ns"),
    ("net.messages", "count"),
    ("net.bytes", "B"),
    ("net.connects", "count"),
    ("net.teardowns", "count"),
    ("storage.ps_ns.k8", "ns"),
    ("storage.ps_ns.k32", "ns"),
    ("storage.ps_ns.k1024", "ns"),
    ("storage.transfers", "count"),
    ("storage.bytes", "B"),
    ("storage.peak_streams", "count"),
    ("storage.replicas_written", "count"),
    ("storage.remote_recoveries", "count"),
    ("storage.local_recoveries", "count"),
    ("blcr.encode_mb_s", "MB/s"),
    ("blcr.decode_mb_s", "MB/s"),
    ("mpi.pingpong_ns", "ns"),
    ("mpi.allgather32_ns", "ns"),
    ("mpi.bcast32_ns", "ns"),
    ("mpi.msg_buffered", "count"),
    ("mpi.req_buffered", "count"),
    ("mpi.released", "count"),
    ("core.run_ms.p50", "ms"),
    ("core.run_ms.tail", "ms"),
    ("core.epochs", "count"),
    ("core.manifest_commits", "count"),
    ("core.attempts", "count"),
    ("core.failures", "count"),
    ("trace.overhead", "x"),
    ("trace.spans", "count"),
];

/// Sweep workers: every operation runs on the calling thread.
const SWEEP_THREADS: usize = 1;

/// Cold set-ups per run: the run's own, plus this many less one in fresh
/// child processes. `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    write_golden: bool,
    /// Set up, print the set-up time and exit (the child side of
    /// [`cold_setups`]).
    setup_only: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <paper|recovery> [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --self-test | --write-golden"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: 30.0,
        trace: false,
        self_test: false,
        write_golden: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = val();
                a.workload = Some(
                    Workload::parse(&v)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{v}`"))),
                );
            }
            "--seed" => {
                a.seed = val()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"))
            }
            "--seconds" => {
                a.seconds = val()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a positive number"))
            }
            "--trace" => {
                a.trace = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                }
            }
            "--self-test" => a.self_test = true,
            "--write-golden" => a.write_golden = true,
            "--setup-only" => a.setup_only = true,
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    a
}

/// Median; the mean of the middle two for an even count.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// When the process started and where it runs.
#[derive(Clone, Copy)]
struct Host {
    start: Instant,
    /// CPUs the process could use before it pinned itself.
    cores: usize,
    pinned_cpu: Option<usize>,
}

/// Start the executor pool and build the plan; the time is taken from
/// `start`, the process start, so one-time initialisation shows in it.
fn setup(w: Workload, size: Size, start: Instant) -> Result<(Plan, f64), String> {
    gbcr_des::pool_threads();
    let plan = Plan::setup(w, size, false)?;
    Ok((plan, start.elapsed().as_secs_f64()))
}

/// Time `n` more cold set-ups of `w`, each in a fresh child process of
/// this program that sets up (from its own process start, as the run
/// itself does) and exits.
fn cold_setups(w: Workload, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    (0..n)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--setup-only"])
                .stdin(std::process::Stdio::null())
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run a set-up child: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let last = text.lines().last().unwrap_or("");
            match (out.status.success(), last.strip_prefix("setup_s ")) {
                (true, Some(v)) => v
                    .parse()
                    .map_err(|_| format!("set-up child printed `{last}`")),
                _ => Err(format!("set-up child failed ({}): `{last}`", out.status)),
            }
        })
        .collect()
}

/// Operation and error tallies while a run is in progress.
struct Acc {
    attempted: usize,
    failed: Vec<(String, String)>,
    errors: Vec<String>,
}

/// Everything one benchmark run measured.
struct RunResult {
    /// End-to-end metrics, from the untraced passes.
    e2e: Vec<Metric>,
    /// Per-layer metrics (empty unless the run was traced).
    layer: Vec<Metric>,
    attempted: usize,
    failed: Vec<(String, String)>,
    /// Problems that make the result incorrect beyond failed operations.
    errors: Vec<String>,
    /// The plan and its first untraced pass (the self-test re-checks them
    /// against corrupted goldens).
    plan: Plan,
    first_pass: Pass,
}

fn print_check(label: &str, c: &workload::Check) {
    println!(
        "check {label}: {} ops against golden/ops.txt, {} failed; {} table cells compared{}",
        c.ops_checked,
        c.failed.len(),
        c.cells_checked,
        if c.table_errors.is_empty() {
            ", tables match".to_owned()
        } else {
            format!(", {} table errors", c.table_errors.len())
        }
    );
    for (k, why) in c.failed.iter().take(10) {
        println!("  failed {k}: {why}");
    }
    for e in c.table_errors.iter().take(10) {
        println!("  table: {e}");
    }
}

fn print_pass(k: usize, p: &Pass, plan: &Plan) {
    println!(
        "pass {k}: wall {:.3} s, cpu {:.3} s, events {}, ops {}",
        p.wall_s,
        p.cpu_s,
        p.events,
        p.run_ms.len()
    );
    if p.run_ms.len() <= 8 {
        let runs: Vec<String> = plan
            .ops
            .iter()
            .zip(&p.run_ms)
            .map(|(op, ms)| format!("{} {ms:.0} ms", op.key))
            .collect();
        println!("  runs: {}", runs.join(", "));
    }
}

/// The largest image payload any outcome left on storage (probe shape).
fn largest_image(outcomes: &[Outcome]) -> Option<bytes::Bytes> {
    let reports = outcomes.iter().filter_map(|o| match o {
        Outcome::Job(r) => Some(r),
        Outcome::Supervised(s) => Some(&s.final_report),
        _ => None,
    });
    reports
        .flat_map(|r| r.images.iter())
        .filter(|(name, _)| !name.contains("manifest"))
        .map(|(_, o)| o.payload.clone())
        .max_by_key(|b| b.len())
        .filter(|b| !b.is_empty())
}

/// Check a pass, folding its failures into `res`. Events reported by the
/// reports must equal the DES's own count on job-run workloads.
fn check_pass(plan: &Plan, pass: &Pass, label: &str, res: &mut Acc) -> workload::Check {
    let c = plan.check(&pass.outcomes);
    print_check(label, &c);
    res.attempted += plan.ops.len();
    res.failed.extend(c.failed.iter().cloned());
    res.errors
        .extend(c.table_errors.iter().map(|e| format!("{label}: {e}")));
    if c.cells_checked == 0 {
        res.errors
            .push(format!("{label}: no table cell was compared"));
    }
    if plan.workload != Workload::Recovery {
        let reported: u64 = pass
            .outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Job(r) => Some(r.events),
                _ => None,
            })
            .sum();
        if reported != pass.events {
            res.errors.push(format!(
                "{label}: reports sum to {reported} events, the DES dispatched {}",
                pass.events
            ));
        }
    }
    c
}

/// One benchmark run of a workload.
fn bench(
    w: Workload,
    size: Size,
    seconds: f64,
    trace: bool,
    host: Host,
) -> Result<RunResult, String> {
    let (plan, own_setup_s) = setup(w, size, host.start)?;
    let mut setups = cold_setups(w, SETUPS - 1)?;
    setups.insert(0, own_setup_s);
    let setup_s = median(setups.clone());
    let stamp = host::EnvStamp::collect(host.cores, host.pinned_cpu, SWEEP_THREADS);
    println!("env: {}", stamp.line());
    let setups: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
    println!(
        "setup: median {setup_s:.4} s of {SETUPS} cold set-ups from process start [{}]; {} ops per pass, in canonical order",
        setups.join(", "),
        plan.ops.len()
    );
    let mut res = Acc {
        attempted: 0,
        failed: Vec::new(),
        errors: Vec::new(),
    };
    // Untraced passes for `seconds` (at least one): another pass starts
    // while it would end no more than half a pass late. With --trace 1
    // they get half of it; the traced pass and the probes follow. Only the
    // first pass keeps its outcomes, so later passes do not add to the
    // resident set; the peak is read after the first pass.
    let t0 = Instant::now();
    let first_pass = plan.pass(None);
    print_pass(1, &first_pass, &plan);
    let first_check = check_pass(&plan, &first_pass, "pass 1", &mut res);
    let peak_rss = host::peak_rss_mb();
    let (mut walls, mut cpus) = (vec![first_pass.wall_s], vec![first_pass.cpu_s]);
    let mut run_ms = first_pass.run_ms.clone();
    let untraced_s = if trace { seconds / 2.0 } else { seconds };
    while t0.elapsed().as_secs_f64() + walls[walls.len() - 1] / 2.0 < untraced_s {
        let k = walls.len() + 1;
        let p = plan.pass(None);
        print_pass(k, &p, &plan);
        check_pass(&plan, &p, &format!("pass {k}"), &mut res);
        if p.events != first_pass.events {
            res.errors.push(format!(
                "pass {k} dispatched {} events, pass 1 {}",
                p.events, first_pass.events
            ));
        }
        walls.push(p.wall_s);
        cpus.push(p.cpu_s);
        run_ms.extend(&p.run_ms);
    }
    let wall_s = median(walls);
    let e2e = vec![
        ("wall_s", wall_s, "s"),
        ("cpu_s", median(cpus), "s"),
        ("events", first_pass.events as f64, "count"),
        ("peak_rss_mb", peak_rss, "MB"),
        ("setup_s", setup_s, "s"),
    ];
    let layer = if trace {
        let untraced = Untraced {
            pass: &first_pass,
            check: &first_check,
            wall_s,
            run_ms,
        };
        layer_metrics(&plan, &untraced, size, &mut res)
    } else {
        Vec::new()
    };
    Ok(RunResult {
        e2e,
        layer,
        attempted: res.attempted,
        failed: res.failed,
        errors: res.errors,
        plan,
        first_pass,
    })
}

/// What the untraced passes of a run leave for the per-layer metrics.
struct Untraced<'a> {
    /// The first pass, with its outcomes, and its check.
    pass: &'a Pass,
    check: &'a workload::Check,
    /// Median pass wall time.
    wall_s: f64,
    /// Host wall time of every operation of every pass.
    run_ms: Vec<f64>,
}

/// The traced pass, the probes, the report counters of the first untraced
/// pass and the per-run times of all of them.
fn layer_metrics(plan: &Plan, u: &Untraced, size: Size, res: &mut Acc) -> Vec<Metric> {
    let pass = u.pass;
    let t = match plan.workload {
        Workload::Recovery => layer::traced_recovery(plan, &pass.outcomes),
        _ => layer::traced_pass(plan, &u.check.digests, u.wall_s, &u.check.rendered),
    };
    println!(
        "traced: level {:?}, {}; {} ops, {} differ from untraced; overhead {:.3}x",
        t.level,
        t.scope,
        t.ops,
        t.failed.len(),
        t.overhead
    );
    res.attempted += t.ops as usize;
    res.failed.extend(t.failed.iter().cloned());
    let image = probes::probe_image(largest_image(&pass.outcomes));
    let probe_scale = if size == Size::Full { 10 } else { 1 };
    let probes = probes::run_all(probe_scale, &image);
    for p in &probes {
        println!(
            "probe {}: {:.3} {} over {} ops (median of 3)",
            p.name, p.value, p.unit, p.ops
        );
    }
    let (p50, tail, tail_label) = layer::run_ms(u.run_ms.clone());
    println!(
        "runs: {} over all untraced passes, p50 {p50:.3} ms, tail ({tail_label}) {tail:.3} ms",
        u.run_ms.len()
    );
    println!(
        "peak_rss: {:.1} MB after the traced pass and probes",
        host::peak_rss_mb()
    );
    let mut m: Vec<Metric> = probes.iter().map(|p| (p.name, p.value, p.unit)).collect();
    m.extend(layer::report_counters(&pass.outcomes));
    m.extend([
        ("des.wake_events", t.wakes as f64, "count"),
        ("des.timer_events", t.timers as f64, "count"),
        ("des.call_events", t.calls as f64, "count"),
        ("core.run_ms.p50", p50, "ms"),
        ("core.run_ms.tail", tail, "ms"),
        ("trace.overhead", t.overhead, "x"),
        ("trace.spans", t.spans as f64, "count"),
    ]);
    m
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        // A non-finite value is already an error (see `metric_set_errors`);
        // print it as 0 so the line stays valid JSON.
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Check the emitted metrics are exactly the expected set, with units,
/// and finite.
fn metric_set_errors(metrics: &[Metric], want: &[(&str, &str)]) -> Vec<String> {
    let mut errs = Vec::new();
    for (name, unit) in want {
        match metrics
            .iter()
            .filter(|m| m.0 == *name)
            .collect::<Vec<_>>()
            .as_slice()
        {
            [m] if m.2 == *unit && m.1.is_finite() => {}
            [m] => errs.push(format!(
                "metric {name}: unit `{}` value {} (want unit `{unit}`, finite)",
                m.2, m.1
            )),
            [] => errs.push(format!("metric {name} missing")),
            _ => errs.push(format!("metric {name} emitted more than once")),
        }
    }
    for m in metrics {
        if !want.iter().any(|(n, _)| *n == m.0) {
            errs.push(format!("unexpected metric {}", m.0));
        }
    }
    errs
}

fn run_bench(a: &Args, w: Workload, host: Host) -> i32 {
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        w.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    let mut res = match bench(w, Size::Full, a.seconds, a.trace, host) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    let (metrics, want): (&[Metric], &[(&str, &str)]) = if a.trace {
        (&res.layer, &PER_LAYER)
    } else {
        (&res.e2e, &END_TO_END)
    };
    res.errors.extend(metric_set_errors(metrics, want));
    for (name, v, unit) in metrics {
        println!("metric {name} = {v} {unit}");
    }
    for e in &res.errors {
        println!("error: {e}");
    }
    let failed = res.failed.len();
    println!(
        "failed: {failed} of {} operations (share {:.4})",
        res.attempted,
        failed as f64 / res.attempted.max(1) as f64
    );
    let correct = failed == 0 && res.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        res.attempted,
        json_metrics(metrics)
    );
    0
}

/// Reduced-size run of every workload with both metric sets, plus checks
/// that the output checks really detect a wrong golden and that
/// `BENCHMARK.json` names the same workloads and metrics.
fn self_test(host: Host) -> i32 {
    let mut errs: Vec<String> = Vec::new();
    for w in Workload::ALL {
        println!("== self-test {} (reduced)", w.name());
        // One traced run yields both metric sets from the same pass.
        let mut r = match bench(
            w,
            Size::Reduced,
            0.001,
            true,
            Host {
                start: Instant::now(),
                ..host
            },
        ) {
            Ok(r) => r,
            Err(e) => {
                errs.push(format!("{}: {e}", w.name()));
                continue;
            }
        };
        let mut e = metric_set_errors(&r.e2e, &END_TO_END);
        e.extend(metric_set_errors(&r.layer, &PER_LAYER));
        e.extend(r.errors.iter().cloned());
        e.extend(
            r.failed
                .iter()
                .map(|(k, why)| format!("failed op {k}: {why}")),
        );
        if r.attempted == 0 {
            e.push("no operation attempted".into());
        }
        // The checks must catch a wrong golden: one op line, one table cell.
        let (plan, pass) = (&mut r.plan, &r.first_pass);
        let key = plan.ops[0].key.clone();
        plan.golden.ops.insert(key.clone(), "corrupted".into());
        let c = plan.check(&pass.outcomes);
        if c.failed.len() != 1 || c.failed[0].0 != key {
            e.push("a corrupted op golden was not caught exactly once".into());
        }
        match corrupt_first_cell(&c.rendered, &plan.golden.tables) {
            Some(bad) => {
                plan.golden.tables = bad;
                if plan.check(&pass.outcomes).table_errors.is_empty() {
                    e.push("a corrupted table cell was not caught".into());
                }
            }
            None => e.push("no table cell to corrupt".into()),
        }
        errs.extend(e.into_iter().map(|x| format!("{}: {x}", w.name())));
    }
    errs.extend(benchmark_json_errors());
    for e in &errs {
        println!("self-test error: {e}");
    }
    if errs.is_empty() {
        println!("self-test: OK");
        0
    } else {
        println!("self-test: {} errors", errs.len());
        1
    }
}

/// The golden tables with the first value cell of the first rendered data
/// row changed, or `None` if nothing was rendered.
fn corrupt_first_cell(rendered: &str, golden: &str) -> Option<String> {
    let row = rendered.lines().nth(3)?;
    let mut cells = row.split("  ").map(str::trim).filter(|c| !c.is_empty());
    let (label, value) = (cells.next()?, cells.next()?);
    let mut out = String::new();
    let mut done = false;
    for line in golden.split_inclusive('\n') {
        let first = line.split("  ").map(str::trim).find(|c| !c.is_empty());
        if !done && first == Some(label) && line.contains(value) {
            let after = line.find(label)? + label.len();
            let at = after + line[after..].find(value)?;
            out.push_str(&line[..at]);
            out.push_str(&"?".repeat(value.len()));
            out.push_str(&line[at + value.len()..]);
            done = true;
        } else {
            out.push_str(line);
        }
    }
    done.then_some(out)
}

/// `BENCHMARK.json` (in the working directory) must name exactly these
/// workloads and metrics with these units.
fn benchmark_json_errors() -> Vec<String> {
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(t) => t,
        Err(e) => {
            return vec![format!(
                "cannot read BENCHMARK.json in the working directory: {e}"
            )]
        }
    };
    let mut errs = Vec::new();
    for w in Workload::ALL {
        if !text.contains(&format!("\"name\": \"{}\"", w.name())) {
            errs.push(format!("BENCHMARK.json lacks workload {}", w.name()));
        }
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if !text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")) {
            errs.push(format!("BENCHMARK.json lacks metric {name} [{unit}]"));
        }
    }
    let names = text.matches("\"name\":").count();
    let want = Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len();
    if names != want {
        errs.push(format!(
            "BENCHMARK.json names {names} entries, expected {want}"
        ));
    }
    errs
}

/// Regenerate `golden/recovery.txt` from the fig8 entry point and
/// `golden/ops.txt` from one pass of each workload, refusing if that
/// pass's tables do not match the committed tables.
fn write_golden() -> i32 {
    use gbcr_bench::fig8;
    let sw = fig8::run_threaded(
        8,
        &fig8::INTERVALS_MS,
        &fig8::NODE_MTBFS_S,
        fig8::REPLICAS,
        Some(SWEEP_THREADS),
        fig8::Backend::Replicated,
    );
    let path = golden::tables_path(Workload::Recovery);
    if let Err(e) = std::fs::write(&path, workload::render_fig8(&sw)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        return 1;
    }
    let mut lines = String::new();
    for w in Workload::ALL {
        let plan = match Plan::setup(w, Size::Full, true) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return 1;
            }
        };
        let pass = plan.pass(None);
        let c = plan.check(&pass.outcomes);
        if !c.table_errors.is_empty() || c.cells_checked == 0 {
            print_check(w.name(), &c);
            eprintln!(
                "perfbench: {} tables do not match the committed tables; golden not written",
                w.name()
            );
            return 1;
        }
        for ((op, o), d) in plan.ops.iter().zip(&pass.outcomes).zip(&c.digests) {
            if let Outcome::Error(e) = o {
                eprintln!("perfbench: {} op {} failed: {e}", w.name(), op.key);
                return 1;
            }
            lines.push_str(&format!("{} {} {d}\n", w.name(), op.key));
        }
        println!(
            "{}: {} ops, {} table cells match",
            w.name(),
            plan.ops.len(),
            c.cells_checked
        );
    }
    if let Err(e) = std::fs::write(golden::ops_path(), lines) {
        eprintln!(
            "perfbench: cannot write {}: {e}",
            golden::ops_path().display()
        );
        return 1;
    }
    println!("golden written to {}", golden::dir().display());
    0
}

fn main() {
    let start = Instant::now();
    let a = parse_args();
    // One sweep worker runs one simulation at a time, so the executor pool
    // gets one thread (within the nproc cap) unless the caller chose a size.
    // The executor and scheduler are the defaults, forced so that the
    // environment cannot change them. The stamp records what ran.
    if std::env::var_os("GBCR_POOL_THREADS").is_none() {
        std::env::set_var("GBCR_POOL_THREADS", SWEEP_THREADS.to_string());
    }
    gbcr_des::set_executor_default(gbcr_des::ExecKind::Pooled);
    gbcr_des::set_sched_default(gbcr_des::SchedKind::Serial);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = Host {
        start,
        cores,
        pinned_cpu: host::pin_to_one_cpu(),
    };
    let code = if a.self_test {
        self_test(host)
    } else if a.write_golden {
        write_golden()
    } else {
        match (a.workload, a.setup_only) {
            (Some(w), false) => run_bench(&a, w, host),
            (Some(w), true) => match setup(w, Size::Full, start) {
                Ok((_, s)) => {
                    println!("setup_s {s}");
                    0
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    1
                }
            },
            (None, _) => usage("--workload is required"),
        }
    };
    std::process::exit(code);
}
