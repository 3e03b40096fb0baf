//! End-to-end and per-layer benchmark of the nwo workspace.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload detail-serial --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Workloads: `detail-serial`, `functional-warm`, `figs-sweep` (see
//! `perfbench/README.md`). Each run builds the kernels (set-up), then
//! repeats whole passes of the workload until `--seconds` have elapsed,
//! checks every simulated output against `perfbench/reference/`, and
//! prints one JSON object as its last stdout line. With `--trace 0` it
//! holds the end-to-end metrics, every time scaled by the run's
//! host-speed factor (see `calib`); with `--trace 1` the run spends the
//! first half of its time untraced and the second half traced, and the
//! object holds the per-layer metrics. `--write-reference` runs one
//! pass and rewrites the workload's reference file instead.

mod calib;
mod figs;
mod kernels;
mod reference;
mod stats;
mod trace;

use calib::HostClock;
use kernels::{Counts, KERNELS};
use reference::Reference;
use stats::{median, ratio};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <detail-serial|functional-warm|figs-sweep> \
                     --seed <n> --seconds <n> --trace <0|1> [--write-reference]";

/// A run starts no pass it expects to end later than this multiple of
/// `--seconds`.
const OVERRUN: f64 = 1.15;

/// Kernel builds before the first pass, and again after every pass;
/// `setup_s` is the median of all of them.
const SETUP_REPS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DetailSerial,
    FunctionalWarm,
    FigsSweep,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("detail-serial", Workload::DetailSerial),
        ("functional-warm", Workload::FunctionalWarm),
        ("figs-sweep", Workload::FigsSweep),
    ];

    fn parse(s: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == s).map(|(_, w)| *w)
    }

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed")
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Bench(Args),
    FigsChild { cache_dir: PathBuf, traced: bool },
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut write_reference = false;
    let mut figs_child = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds `{v}`"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                });
            }
            "--write-reference" => write_reference = true,
            "--figs-child" => figs_child = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(cache_dir) = figs_child {
        return Ok(Mode::FigsChild {
            cache_dir,
            traced: trace.unwrap_or(false),
        });
    }
    Ok(Mode::Bench(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        write_reference,
    }))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
        Ok(Mode::FigsChild { cache_dir, traced }) => {
            std::process::exit(figs::child_main(&cache_dir, traced))
        }
        Ok(Mode::Bench(args)) => match run(&args) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        },
    }
}

/// One pass of a workload.
#[derive(Debug, Clone, Default)]
struct Pass {
    traced: bool,
    wall_s: f64,
    attempted: u64,
    failed: u64,
    /// Results delivered: kernels simulated, or, in `figs-sweep`,
    /// simulation results handed to experiments.
    results: u64,
    counts: Counts,
    /// Wall seconds of each op.
    op_s: Vec<f64>,
    /// Peak resident memory of the pass (of the child in `figs-sweep`).
    rss_mb: f64,
    figs: Option<figs::FigsPass>,
}

/// A named metric with its unit.
type Metric = (String, &'static str, f64);

/// Scratch space for cache directories and trace files.
fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Where each kernel op's reference line goes.
enum Check<'a> {
    Against(&'a Reference),
    Record(&'a mut Reference),
}

type KernelOp = fn(
    &nwo_workloads::Benchmark,
    &mut Tracer,
    &mut HostClock,
    &mut Counts,
) -> Result<String, String>;

/// Runs `op` on every kernel once, in an order drawn from `rng`. A
/// failed check, error or panic counts as one failed op. Pass and op
/// walls leave out the time `clock` spent sampling.
fn kernel_pass(
    kernels: &[nwo_workloads::Benchmark],
    rng: &mut nwo_workloads::Rng,
    op: KernelOp,
    check: &mut Check,
    tr: &mut Tracer,
    clock: &mut HostClock,
) -> Pass {
    let mut order: Vec<usize> = (0..kernels.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut pass = Pass {
        traced: tr.is_on(),
        ..Pass::default()
    };
    stats::reset_peak_rss();
    let start = Instant::now();
    let spent_at_start = clock.spent_s();
    for i in order {
        let bench = &kernels[i];
        let t = Instant::now();
        let spent = clock.spent_s();
        let id = tr.enter("perfbench", "op", bench.name);
        let outcome = catch_unwind(AssertUnwindSafe(|| op(bench, tr, clock, &mut pass.counts)));
        tr.exit(id);
        pass.op_s
            .push(t.elapsed().as_secs_f64() - (clock.spent_s() - spent));
        let verdict = match outcome {
            Ok(Ok(line)) => match check {
                Check::Against(r) => r.check(bench.name, &line),
                Check::Record(r) => {
                    r.insert(bench.name, &line);
                    Ok(())
                }
            },
            Ok(Err(e)) => Err(e),
            Err(payload) => Err(format!(
                "{}: panicked: {}",
                bench.name,
                panic_text(&*payload)
            )),
        };
        pass.attempted += 1;
        match verdict {
            Ok(()) => pass.results += 1,
            Err(e) => {
                eprintln!("failed op: {e}");
                pass.failed += 1;
            }
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64() - (clock.spent_s() - spent_at_start);
    pass.rss_mb = stats::peak_rss_mb().unwrap_or(0.0);
    pass
}

fn figs_pass(
    index: usize,
    reference: Option<&Reference>,
    tr: &mut Tracer,
    clock: &mut HostClock,
) -> Pass {
    let fp = figs::run_pass(&work_dir(), index, tr.is_on(), reference, tr);
    clock.absorb(&fp.stats.cal_samples);
    Pass {
        traced: tr.is_on(),
        wall_s: fp.wall_s,
        attempted: fp.attempted,
        failed: fp.failed,
        results: fp.stats.submitted,
        counts: fp.stats.counts.clone(),
        op_s: fp
            .stats
            .experiments
            .iter()
            .map(|(_, wall, _)| *wall)
            .collect(),
        rss_mb: fp.stats.rss_mb,
        figs: Some(fp),
    }
}

/// Moves this process's main thread to CPU `cpu` with `taskset` (left
/// where it is if `taskset` is missing). Single-thread passes alternate
/// CPUs: on a shared host one vCPU can sit in a slow phase while the
/// other runs fast, and alternating spreads a run evenly over both.
fn pin_to_cpu(cpu: usize) {
    let _ = Command::new("taskset")
        .args([
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

/// Builds every kernel, records how long that took, and samples the
/// host clock.
fn timed_build(
    tr: &mut Tracer,
    clock: &mut HostClock,
    setup_s: &mut Vec<f64>,
) -> Result<Vec<nwo_workloads::Benchmark>, String> {
    let t = Instant::now();
    let kernels = kernels::build_kernels(tr)?;
    setup_s.push(t.elapsed().as_secs_f64());
    clock.tick();
    Ok(kernels)
}

/// Runs the benchmark and returns the result line.
fn run(args: &Args) -> Result<String, String> {
    let workload = args.workload;
    let reference = if args.write_reference {
        None
    } else {
        Some(Reference::load(workload.name())?)
    };
    std::fs::create_dir_all(work_dir())
        .map_err(|e| format!("cannot create {}: {e}", work_dir().display()))?;

    // Set-up: build every kernel. Further builds after each pass spread
    // the set-up samples over the run, so one burst of host noise does
    // not decide `setup_s`.
    let mut tr = Tracer::new(args.trace);
    let mut clock = HostClock::new(true);
    let mut setup_s = Vec::new();
    let mut kernels = Vec::new();
    for _ in 0..SETUP_REPS {
        kernels = timed_build(&mut tr, &mut clock, &mut setup_s)?;
    }
    tr.set_on(false);

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rng = nwo_workloads::Rng::new(args.seed);
    let mut recorded = Reference::default();
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    let mut run_pass =
        |tr: &mut Tracer, clock: &mut HostClock, passes: &mut Vec<Pass>| -> Result<(), String> {
            let mut check = match &reference {
                Some(r) => Check::Against(r),
                None => Check::Record(&mut recorded),
            };
            if workload != Workload::FigsSweep {
                pin_to_cpu(passes.len() % cpus);
            }
            let pass = match workload {
                Workload::DetailSerial => kernel_pass(
                    &kernels,
                    &mut rng,
                    kernels::detail_op,
                    &mut check,
                    tr,
                    clock,
                ),
                Workload::FunctionalWarm => {
                    kernel_pass(&kernels, &mut rng, kernels::warm_op, &mut check, tr, clock)
                }
                Workload::FigsSweep => figs_pass(passes.len(), reference.as_ref(), tr, clock),
            };
            println!(
                "pass {} ({}): wall {:.4} s, {} ops, {} failed",
                passes.len() + 1,
                if pass.traced { "traced" } else { "untraced" },
                pass.wall_s,
                pass.attempted,
                pass.failed
            );
            passes.push(pass);
            for _ in 0..SETUP_REPS {
                timed_build(tr, clock, &mut setup_s)?;
            }
            Ok(())
        };

    // Passes repeat until `until` seconds have elapsed, but a pass that
    // would likely end past OVERRUN x `--seconds` (judged by the last
    // pass) is not started, which bounds a run's length on a slow host.
    let budget = args.seconds * OVERRUN;
    let more = |until: f64, passes: &[Pass]| {
        let elapsed = start.elapsed().as_secs_f64();
        let last = passes.last().map_or(0.0, |p| p.wall_s);
        elapsed < until && elapsed + last <= budget
    };
    let untraced_for = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    loop {
        run_pass(&mut tr, &mut clock, &mut passes)?;
        if args.write_reference || !more(untraced_for, &passes) {
            break;
        }
    }
    if args.trace && !args.write_reference {
        // The program's own phase spans (oracle-step) feed the verify
        // layer; nwo-obs cannot be switched off again, so traced passes
        // come last. There is always at least one.
        nwo_sim::obs::span::enable(false);
        tr.set_on(true);
        clock.set_on(false);
        loop {
            run_pass(&mut tr, &mut clock, &mut passes)?;
            if !more(args.seconds, &passes) {
                break;
            }
        }
    }

    if args.write_reference {
        let text = match workload {
            Workload::FigsSweep => {
                let fp = passes[0].figs.as_ref().expect("figs pass");
                let mut r = Reference::default();
                for (name, table) in &fp.tables {
                    r.insert(name, table);
                }
                r
            }
            _ => recorded,
        };
        let header = format!(
            "Reference outputs of the {} workload, written by --write-reference.",
            workload.name()
        );
        let path = reference::path(workload.name());
        std::fs::write(&path, text.render(&header))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }

    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    println!(
        "error_rate: {failed}/{attempted} = {}",
        ratio(failed as f64, attempted as f64)
    );
    if let Some(fp) = passes.iter().find_map(|p| p.figs.as_ref()) {
        for line in figs::model_accuracy(fp.tables.get("fig7").map_or("", |s| s.as_str())) {
            println!("{line}");
        }
    }
    let metrics = if args.trace {
        let m = layer_metrics(workload, &passes, &tr, &setup_s);
        let path = work_dir().join(format!("trace-{}-seed{}.json", workload.name(), args.seed));
        std::fs::write(&path, tr.to_json(workload.name(), args.seed))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("trace: {} spans in {}", tr.spans().len(), path.display());
        for (layer, s) in tr.layer_self_s() {
            println!("layer self time: {layer} {s:.4} s");
        }
        m
    } else {
        end_to_end_metrics(&passes, &setup_s, &clock)
    };
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

/// Mean pass wall.
///
/// The mean, not the median or the fastest pass: the host the benchmark
/// was tuned on slows the detailed model by up to 2x in phases of
/// seconds to minutes, and the mean over a run's passes repeated from
/// run to run better than either (see README.md).
fn mean_wall(passes: &[&Pass]) -> f64 {
    passes.iter().map(|p| p.wall_s).sum::<f64>() / passes.len().max(1) as f64
}

/// Sum of `f(pass)` over `passes` per second of their summed wall.
fn rate(passes: &[&Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    ratio(
        passes.iter().map(|p| f(p)).sum(),
        passes.iter().map(|p| p.wall_s).sum(),
    )
}

/// The end-to-end metrics. Every time is scaled by `clock`'s host-speed
/// factor.
fn end_to_end_metrics(passes: &[Pass], setup_s: &[f64], clock: &HostClock) -> Vec<Metric> {
    let timed: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let walls: Vec<f64> = timed.iter().map(|p| p.wall_s).collect();
    let factor = clock.factor();
    println!(
        "{}",
        stats::describe("calibration sample", "s", clock.samples())
    );
    println!(
        "host-speed factor {factor:.4} (reference sample {} s); raw mean pass wall {:.4} s",
        calib::CAL_REF_S,
        mean_wall(&timed)
    );
    let ops: Vec<f64> = timed.iter().flat_map(|p| p.op_s.iter().copied()).collect();
    println!(
        "{}",
        stats::describe("setup (one kernel build)", "s", setup_s)
    );
    println!("{}", stats::describe("pass wall", "s", &walls));
    println!("{}", stats::describe("op wall", "s", &ops));
    let rss: Vec<f64> = timed.iter().map(|p| p.rss_mb).collect();
    println!("{}", stats::describe("pass peak resident", "MiB", &rss));
    vec![
        ("setup_s".into(), "s", median(setup_s) * factor),
        ("wall_s".into(), "s", mean_wall(&timed) * factor),
        (
            "sim_minst_per_s".into(),
            "Minst/s",
            rate(&timed, |p| p.counts.f("committed") / 1e6) / factor,
        ),
        (
            "func_minst_per_s".into(),
            "Minst/s",
            rate(&timed, |p| p.counts.functional_insts() as f64 / 1e6) / factor,
        ),
        (
            "results_per_s".into(),
            "1/s",
            rate(&timed, |p| p.results as f64) / factor,
        ),
        ("peak_rss_mb".into(), "MiB", median(&rss)),
    ]
}

fn layer_metrics(workload: Workload, passes: &[Pass], tr: &Tracer, setup_s: &[f64]) -> Vec<Metric> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let n = traced.len().max(1) as f64;
    // Counts repeat exactly from pass to pass: report one pass's.
    let c = traced.last().map(|p| p.counts.clone()).unwrap_or_default();
    let all = |key: &str| traced.iter().map(|p| p.counts.f(key)).sum::<f64>();
    let per = |name: &str| tr.total(name).0 / n;
    let figs: Vec<&figs::ChildStats> = traced
        .iter()
        .filter_map(|p| p.figs.as_ref().map(|f| &f.stats))
        .collect();
    let figs_per = |f: fn(&figs::ChildStats) -> f64| figs.iter().map(|s| f(s)).sum::<f64>() / n;

    let is_figs = workload == Workload::FigsSweep;
    let (new_s, run_s) = if is_figs {
        (
            figs_per(|s| (s.busy_s - s.measured_run_s - s.cache_s).max(0.0)),
            figs_per(|s| s.measured_run_s),
        )
    } else {
        (per("Simulator::new"), per("Simulator::run"))
    };
    let run_ns_total = run_s * n * 1e9;
    let warmup_s = per("Simulator::warmup");
    let emu_s = per("Emulator::run");
    let oracle_s = per("oracle-step");

    let mut m: Vec<Metric> = Vec::new();
    let mut push = |name: &str, unit: &'static str, v: f64| m.push((name.to_string(), unit, v));
    push("workloads.build_s", "s", median(setup_s));
    push("isa.emu_s", "s", emu_s);
    push(
        "isa.emu_minst_per_s",
        "Minst/s",
        ratio(c.f("emulated") / 1e6, emu_s),
    );
    push("sim.new_s", "s", new_s);
    push("sim.run_s", "s", run_s);
    push("sim.ns_per_cycle", "ns", ratio(run_ns_total, all("cycles")));
    push(
        "sim.ns_per_commit",
        "ns",
        ratio(run_ns_total, all("committed")),
    );
    for k in KERNELS {
        let cycles = all(&format!("cycles.{k}"));
        let secs = if is_figs {
            figs.iter()
                .filter_map(|s| s.kernel_run_s.get(k))
                .sum::<f64>()
        } else {
            tr.total_for("Simulator::run", k)
        };
        push(
            &format!("sim.{k}.ns_per_cycle"),
            "ns",
            ratio(secs * 1e9, cycles),
        );
    }
    push("sim.warmup_s", "s", warmup_s);
    push(
        "sim.warmup_minst_per_s",
        "Minst/s",
        ratio(c.f("warmed") / 1e6, warmup_s),
    );
    push("sim.cycles", "count", c.f("cycles"));
    push("sim.committed", "count", c.f("committed"));
    push(
        "sim.squashed_ratio",
        "ratio",
        ratio(c.f("squashed"), c.f("fetched")),
    );
    push("core.packed_ops", "count", c.f("packed_ops"));
    push("core.replay_issued", "count", c.f("replay_issued"));
    push(
        "core.replay_squash_ratio",
        "ratio",
        ratio(c.f("replay_squashed"), c.f("replay_issued")),
    );
    push("core.gated_ops", "count", c.f("gated_ops"));
    push("mem.l1d_accesses", "count", c.f("l1d_accesses"));
    push(
        "mem.l1d_miss_ratio",
        "ratio",
        ratio(c.f("l1d_misses"), c.f("l1d_accesses")),
    );
    push("mem.l2_accesses", "count", c.f("l2_accesses"));
    push("mem.dtlb_accesses", "count", c.f("dtlb_accesses"));
    push("bpred.dir_lookups", "count", c.f("dir_lookups"));
    push(
        "bpred.mispredict_ratio",
        "ratio",
        ratio(c.f("mispredicts"), c.f("branches")),
    );
    push("verify.commits_checked", "count", c.f("oracle_checked"));
    push("verify.oracle_s", "s", oracle_s);
    push(
        "verify.ns_per_check",
        "ns",
        ratio(oracle_s * 1e9, c.f("oracle_checked")),
    );
    push("ckpt.checkpoint_s", "s", per("Simulator::checkpoint"));
    push("ckpt.restore_s", "s", per("Simulator::restore_checkpoint"));
    push("ckpt.bytes", "bytes", c.f("ckpt_bytes"));
    push("ckpt.cache_s", "s", figs_per(|s| s.cache_s));
    let last = figs.last().copied().cloned().unwrap_or_default();
    push("bench.submitted", "count", last.submitted as f64);
    push("bench.sims_run", "count", last.sims_run as f64);
    push("bench.memo_hits", "count", last.memo_hits as f64);
    push(
        "bench.memo_hit_ratio",
        "ratio",
        ratio(last.memo_hits as f64, last.submitted as f64),
    );
    push("bench.busy_s", "s", figs_per(|s| s.busy_s));
    push(
        "bench.utilization",
        "ratio",
        ratio(
            figs_per(|s| s.busy_s),
            mean_wall(&traced) * figs::JOBS as f64,
        ),
    );
    for exp in figs::EXPERIMENTS {
        push(
            &format!("bench.{exp}.wall_s"),
            "s",
            tr.total_for("experiment", exp) / n,
        );
    }
    push(
        "obs.trace_overhead_pct",
        "%",
        (ratio(mean_wall(&traced), mean_wall(&untraced)) - 1.0) * 100.0,
    );
    m
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            trace::quote(name),
            trace::quote(unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let mode = parse_args(&argv(
            "--workload figs-sweep --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            mode,
            Mode::Bench(Args {
                workload: Workload::FigsSweep,
                seed: 3,
                seconds: 10.0,
                trace: true,
                write_reference: false,
            })
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload figs-sweep --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload figs-sweep --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload figs-sweep --seconds 1 --trace 0")).is_err());
    }

    /// A perturbed reference turns an op into a failed op; the pass
    /// still finishes every kernel.
    #[test]
    fn perturbed_reference_counts_failed_ops_not_a_crash() {
        let kernels: Vec<_> = ["gsm-enc", "g721-dec"]
            .iter()
            .map(|k| nwo_workloads::benchmark(k, 0).unwrap())
            .collect();
        let mut tr = Tracer::new(false);
        let mut truth = Reference::default();
        let mut rng = nwo_workloads::Rng::new(1);
        let first = kernel_pass(
            &kernels,
            &mut rng,
            kernels::detail_op,
            &mut Check::Record(&mut truth),
            &mut tr,
            &mut HostClock::new(true),
        );
        assert_eq!((first.attempted, first.failed), (2, 0));

        let text = truth
            .render("test")
            .replacen("committed=", "committed=1", 1);
        let perturbed = Reference::parse(&text);
        let second = kernel_pass(
            &kernels,
            &mut rng,
            kernels::detail_op,
            &mut Check::Against(&perturbed),
            &mut tr,
            &mut HostClock::new(true),
        );
        assert_eq!((second.attempted, second.failed, second.results), (2, 1, 1));
    }

    /// A panicking op is caught and counted.
    #[test]
    fn panicking_op_counts_as_failed() {
        fn boom(
            _: &nwo_workloads::Benchmark,
            _: &mut Tracer,
            _: &mut HostClock,
            _: &mut Counts,
        ) -> Result<String, String> {
            panic!("deliberate")
        }
        let kernels = vec![nwo_workloads::benchmark("gsm-enc", 0).unwrap()];
        let reference = Reference::default();
        let pass = kernel_pass(
            &kernels,
            &mut nwo_workloads::Rng::new(0),
            boom,
            &mut Check::Against(&reference),
            &mut Tracer::new(true),
            &mut HostClock::new(false),
        );
        assert_eq!((pass.attempted, pass.failed), (1, 1));
    }

    /// The metrics the program prints are exactly those BENCHMARK.json
    /// declares, with the same units.
    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let v = nwo_sim::obs::json::parse(&text).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|a| a.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let names = |ms: Vec<Metric>| -> Vec<(String, String)> {
            ms.into_iter().map(|(n, u, _)| (n, u.to_string())).collect()
        };
        let pass = Pass::default();
        assert_eq!(
            names(end_to_end_metrics(
                std::slice::from_ref(&pass),
                &[1.0],
                &HostClock::new(false)
            )),
            declared("end_to_end")
        );
        let tr = Tracer::new(false);
        assert_eq!(
            names(layer_metrics(Workload::FigsSweep, &[pass], &tr, &[1.0])),
            declared("per_layer")
        );
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(|a| a.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
        assert_eq!(workloads, ours);
    }
}
