//! Golden digests of the detailed model's results: every kernel at
//! scale 0 under a matrix of machine configurations, each run reduced
//! to FNV-1a digests of its serialized `SimReport`, its `--json`
//! snapshot and its first committed-instruction trace records. Any
//! change to scheduling order, timing, statistics or the `f64` power
//! sums shows up here as a digest mismatch.
//!
//! Regenerate `tests/golden/digests.txt` with `NWO_REGEN_GOLDEN=1
//! cargo test --test golden` — only for a change that is meant to alter
//! simulated results.

use std::fmt::Write as _;
use std::path::PathBuf;

use nwo::core::{GatingConfig, PackConfig};
use nwo::sim::ckpt::{fnv1a, Checkpointable, SectionWriter};
use nwo::sim::{SimConfig, Simulator};
use nwo::workloads::full_suite;

/// Commit records per run folded into the trace digest.
const TRACE_RECORDS: usize = 256;

fn configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("baseline", SimConfig::default()),
        (
            "gating",
            SimConfig::default().with_gating(GatingConfig::default()),
        ),
        (
            "packing",
            SimConfig::default().with_packing(PackConfig::default()),
        ),
        (
            "replay",
            SimConfig::default().with_packing(PackConfig::with_replay()),
        ),
        ("eight-issue", SimConfig::default().with_eight_issue()),
        ("perfect-bp", SimConfig::default().with_perfect_prediction()),
    ]
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/digests.txt")
}

fn digest_lines() -> String {
    let mut out = String::new();
    for bench in full_suite(0) {
        for (name, config) in configs() {
            let mut sim = Simulator::new(&bench.program, config.with_trace(TRACE_RECORDS));
            let report = sim
                .run(u64::MAX)
                .unwrap_or_else(|e| panic!("{} under {name}: {e}", bench.name));
            let mut w = SectionWriter::new();
            report.save(&mut w);
            let report_digest = fnv1a(&w.into_bytes());
            let snapshot_digest = fnv1a(sim.snapshot().to_json().as_bytes());
            let trace_digest = fnv1a(format!("{:?}", sim.trace_commits()).as_bytes());
            let _ = writeln!(
                out,
                "{} {name} cycles={} committed={} report={report_digest:016x} \
                 snapshot={snapshot_digest:016x} trace={trace_digest:016x}",
                bench.name, report.stats.cycles, report.stats.committed
            );
        }
    }
    out
}

#[test]
fn kernel_results_match_golden_digests() {
    let actual = digest_lines();
    if std::env::var_os("NWO_REGEN_GOLDEN").is_some() {
        std::fs::write(golden_path(), &actual).expect("write golden digests");
        return;
    }
    let golden = std::fs::read_to_string(golden_path())
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path().display()));
    let drifted: Vec<String> = golden
        .lines()
        .zip(actual.lines())
        .filter(|(g, a)| g != a)
        .map(|(g, a)| format!("  golden {g}\n  actual {a}"))
        .collect();
    assert!(
        drifted.is_empty() && golden.lines().count() == actual.lines().count(),
        "simulated results drifted from tests/golden/digests.txt \
         ({} of {} runs differ):\n{}",
        drifted.len(),
        actual.lines().count(),
        drifted.join("\n")
    );
}
