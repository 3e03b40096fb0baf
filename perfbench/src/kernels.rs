//! The two single-process workloads, one op per kernel:
//!
//! * `detail-serial` — a cold detailed run with packing and replay on;
//! * `functional-warm` — emulate to halt, verified warmup, checkpoint,
//!   restore into a fresh simulator, verified detailed tail.

use crate::calib::HostClock;
use crate::trace::{SpanId, Tracer};
use nwo_core::PackConfig;
use nwo_isa::Emulator;
use nwo_sim::obs::span as obs_span;
use nwo_sim::{SimConfig, SimError, SimReport, Simulator};
use nwo_workloads::Benchmark;
use std::collections::BTreeMap;

/// The fourteen kernels of the paper's Tables 2 and 3.
pub const KERNELS: [&str; 14] = [
    "compress",
    "gcc",
    "go",
    "ijpeg",
    "m88ksim",
    "perl",
    "vortex",
    "xlisp",
    "gsm-enc",
    "gsm-dec",
    "g721-enc",
    "g721-dec",
    "mpeg2-enc",
    "mpeg2-dec",
];

/// Instructions left for the detailed tail of `functional-warm`.
pub const TAIL_INSTS: u64 = 50_000;

/// Committed instructions per slice of a `detail-serial` run (about
/// 0.1 s of host time); the host clock samples between slices.
pub const SLICE_INSTS: u64 = 250_000;

/// Step budget for a bare emulator run (far above any kernel).
const EMU_LIMIT: u64 = 1 << 34;

/// The machine both workloads simulate: Table 1 defaults with operation
/// packing and replay speculation on.
pub fn detail_config() -> SimConfig {
    SimConfig::default().with_packing(PackConfig::with_replay())
}

/// Builds every kernel at its experiment scale, each call in a span.
pub fn build_kernels(tr: &mut Tracer) -> Result<Vec<Benchmark>, String> {
    KERNELS
        .iter()
        .map(|&name| {
            let scale = nwo_workloads::experiment_scale(name);
            tr.time("workloads", "benchmark()", name, || {
                nwo_workloads::benchmark(name, scale)
            })
            .ok_or_else(|| format!("nwo_workloads::benchmark does not know `{name}`"))
        })
        .collect()
}

/// Named event counts summed over ops. Keys are fixed strings, plus
/// `cycles.<kernel>` per kernel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts(pub BTreeMap<String, u64>);

impl Counts {
    /// Adds `n` to `key`.
    pub fn add(&mut self, key: &str, n: u64) {
        *self.0.entry(key.to_string()).or_insert(0) += n;
    }

    /// The count for `key` (0 if never added).
    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    /// `get(key)` as a float, for metric arithmetic.
    pub fn f(&self, key: &str) -> f64 {
        self.get(key) as f64
    }

    /// Adds every counter of a detailed run of `kernel`.
    pub fn add_report(&mut self, kernel: &str, r: &SimReport) {
        let s = &r.stats;
        self.add("committed", s.committed);
        self.add("cycles", s.cycles);
        self.add(&format!("cycles.{kernel}"), s.cycles);
        self.add("fetched", s.fetched);
        self.add("squashed", s.squashed);
        self.add("packed_ops", s.pack.packed_ops);
        self.add("replay_issued", s.pack.replay_issued);
        self.add("replay_squashed", s.pack.replay_squashed);
        self.add("gated_ops", s.gated_ops);
        self.add("branches", s.branch.committed);
        self.add("mispredicts", s.branch.mispredicts);
        let h = &r.hierarchy;
        self.add("l1d_accesses", h.l1d.accesses());
        self.add("l1d_misses", h.l1d.misses);
        self.add("l2_accesses", h.l2.accesses());
        self.add("dtlb_accesses", h.dtlb.hits + h.dtlb.misses);
        if let Some(p) = &r.predictor {
            self.add("dir_lookups", p.dir_lookups);
        }
    }

    /// Instructions some functional engine executed: the emulator, the
    /// warmup, the lockstep oracle, and the detailed model's
    /// execute-at-fetch front end (wrong path included).
    pub fn functional_insts(&self) -> u64 {
        self.get("emulated") + self.get("warmed") + self.get("oracle_checked") + self.get("fetched")
    }

    /// Serializes as a flat JSON object.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", crate::trace::quote(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Parses [`Counts::to_json`] output.
    pub fn from_json(v: &nwo_sim::obs::json::JsonValue) -> Option<Counts> {
        match v {
            nwo_sim::obs::json::JsonValue::Object(fields) => fields
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                .collect::<Option<_>>()
                .map(Counts),
            _ => None,
        }
    }
}

/// The reference line of one simulation: the counts and outputs a
/// change to the program must not move.
pub fn record_line(r: &SimReport) -> String {
    let mut out_bytes: Vec<u8> = r.out_quads.iter().flat_map(|q| q.to_le_bytes()).collect();
    out_bytes.extend_from_slice(&r.out_bytes);
    format!(
        "committed={} cycles={} packed_ops={} replay_squashed={} int_mw={:?}/{:?} out={:016x}",
        r.stats.committed,
        r.stats.cycles,
        r.stats.pack.packed_ops,
        r.stats.pack.replay_squashed,
        r.power.baseline_mw_per_cycle,
        r.power.gated_mw_per_cycle,
        nwo_sim::ckpt::fnv1a(&out_bytes)
    )
}

/// Nanoseconds the program's own `oracle-step` spans recorded during
/// one call, read from the `nwo-obs` aggregate (0 when it is off).
fn with_oracle_time<T>(f: impl FnOnce() -> T) -> (T, u64) {
    if !obs_span::enabled() {
        return (f(), 0);
    }
    let before = obs_span::aggregate();
    let out = f();
    let ns = obs_span::aggregate()
        .since(&before)
        .leaf_totals("oracle-step")
        .0;
    (out, ns)
}

/// Runs `f` in a `sim` span named `name` and attributes the oracle time
/// inside it to a `verify` child span.
fn sim_call<T>(tr: &mut Tracer, name: &str, label: &str, f: impl FnOnce() -> T) -> T {
    let id: SpanId = tr.enter("sim", name, label);
    let (out, oracle_ns) = with_oracle_time(f);
    tr.exit(id);
    tr.add_measured_child(id, "verify", "oracle-step", oracle_ns);
    out
}

fn check_output(name: &str, stage: &str, got: &[u64], expected: &[u64]) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "{name}: {stage} output differs from the kernel's reference ({} vs {} quads)",
            got.len(),
            expected.len()
        ))
    }
}

/// Runs `sim` to `halt` in slices of [`SLICE_INSTS`] committed
/// instructions, sampling `clock` after each. `run` resumes where the
/// last slice stopped, so the simulated result is that of one call.
fn run_sliced(sim: &mut Simulator, clock: &mut HostClock) -> Result<SimReport, SimError> {
    let mut limit = SLICE_INSTS;
    loop {
        let report = sim.run(limit)?;
        clock.tick();
        if sim.finished() {
            return Ok(report);
        }
        limit += SLICE_INSTS;
    }
}

/// One `detail-serial` op: a cold detailed run of `bench`. Returns the
/// reference line.
pub fn detail_op(
    bench: &Benchmark,
    tr: &mut Tracer,
    clock: &mut HostClock,
    counts: &mut Counts,
) -> Result<String, String> {
    let name = bench.name;
    let mut sim = tr.time("sim", "Simulator::new", name, || {
        Simulator::new(&bench.program, detail_config())
    });
    let report = sim_call(tr, "Simulator::run", name, || run_sliced(&mut sim, clock))
        .map_err(|e| format!("{name}: {e}"))?;
    counts.add_report(name, &report);
    check_output(name, "detailed", &report.out_quads, &bench.expected)?;
    Ok(record_line(&report))
}

/// One `functional-warm` op: the four-step chain on `bench`, sampling
/// `clock` between steps. Returns the reference line.
pub fn warm_op(
    bench: &Benchmark,
    tr: &mut Tracer,
    clock: &mut HostClock,
    counts: &mut Counts,
) -> Result<String, String> {
    let name = bench.name;
    let config = detail_config().with_verify();

    let mut emu = Emulator::new(&bench.program);
    let insts = tr
        .time("isa", "Emulator::run", name, || emu.run(EMU_LIMIT))
        .map_err(|e| format!("{name}: emulator: {e}"))?;
    counts.add("emulated", insts);
    check_output(name, "emulator", emu.outq(), &bench.expected)?;
    clock.tick();

    let mut warm = tr.time("sim", "Simulator::new", name, || {
        Simulator::new(&bench.program, config.clone())
    });
    let warmed = sim_call(tr, "Simulator::warmup", name, || {
        warm.warmup(insts.saturating_sub(TAIL_INSTS))
    })
    .map_err(|e| format!("{name}: warmup: {e}"))?;
    counts.add("warmed", warmed);
    clock.tick();
    let bytes = tr.time("ckpt", "Simulator::checkpoint", name, || warm.checkpoint());
    counts.add("ckpt_bytes", bytes.len() as u64);

    let mut sim = tr.time("sim", "Simulator::new", name, || {
        Simulator::new(&bench.program, config)
    });
    tr.time("ckpt", "Simulator::restore_checkpoint", name, || {
        sim.restore_checkpoint(&bytes)
    })
    .map_err(|e| format!("{name}: restore: {e}"))?;
    clock.tick();
    let report = sim_call(tr, "Simulator::run", name, || sim.run(u64::MAX))
        .map_err(|e| format!("{name}: tail: {e}"))?;
    clock.tick();
    let checked = warm.oracle_checked().unwrap_or(0) + sim.oracle_checked().unwrap_or(0);
    counts.add("oracle_checked", checked);
    counts.add_report(name, &report);
    check_output(name, "restored tail", &report.out_quads, &bench.expected)?;
    Ok(format!(
        "emulated={insts} warmed={warmed} oracle_checked={checked} {}",
        record_line(&report)
    ))
}
