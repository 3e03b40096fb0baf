//! The `figs-sweep` workload: a figure-regeneration run through
//! `nwo_bench::harness::run_harness_with` at two jobs.
//!
//! `Runner::global()` memoizes for the life of its process, so each
//! pass runs in a fresh child process (this binary with
//! `--figs-child`) against a fresh, empty `NWO_CACHE_DIR`. The child
//! prints every experiment's table under a `@@ <experiment>` marker,
//! then one `@@ result {json}` line with its counters and the host-clock
//! samples it took between experiments; the parent times the child,
//! checks each table against the reference and reads the counters.

use crate::calib::HostClock;
use crate::kernels::{Counts, KERNELS};
use crate::reference::Reference;
use crate::stats;
use crate::trace::{quote, Span, Tracer};
use nwo_bench::harness::{run_harness_with, HarnessOptions};
use nwo_bench::runner::Runner;
use nwo_sim::obs::json::{self, JsonValue};
use nwo_sim::obs::span as obs_span;
use nwo_sim::SimReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The experiments of one pass, in order: a subset of the full sweep
/// that still runs baseline, gating and packing configs on all
/// fourteen kernels.
pub const EXPERIMENTS: [&str; 9] = [
    "fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "loadstat", "fig11", "stalls",
];

/// Worker threads of the child's runner: the core count of the 2-vCPU
/// box the benchmark was tuned on.
pub const JOBS: usize = 2;

/// Integer-unit power reduction the paper reports (Section 4.4), as
/// recorded in EXPERIMENTS.md: SPECint95, then media.
const PAPER_REDUCTION: [(&str, f64); 2] = [("SPEC", 54.1), ("media", 57.9)];

/// Runner and profiler figures of one child pass.
#[derive(Debug, Clone, Default)]
pub struct ChildStats {
    /// Submissions, simulations run, memo hits, disk hits.
    pub submitted: u64,
    pub sims_run: u64,
    pub memo_hits: u64,
    pub disk_hits: u64,
    /// Summed worker `sim-job` seconds.
    pub busy_s: f64,
    /// Seconds in the program's `measured-run` spans.
    pub measured_run_s: f64,
    /// Seconds in the program's `cache-lookup`/`cache-store` spans.
    pub cache_s: f64,
    /// Per experiment: wall seconds and harness status.
    pub experiments: Vec<(String, f64, String)>,
    /// Counters summed over every simulation the pass ran.
    pub counts: Counts,
    /// Per kernel: seconds in `measured-run` (traced passes only).
    pub kernel_run_s: BTreeMap<String, f64>,
    /// The child's peak resident memory.
    pub rss_mb: f64,
    /// Host-clock samples taken between experiments (untraced passes).
    pub cal_samples: Vec<f64>,
}

/// Everything one parent-side pass measured.
#[derive(Debug, Clone, Default)]
pub struct FigsPass {
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub stats: ChildStats,
    /// Per experiment: table text with the `[...]` timing lines removed.
    pub tables: BTreeMap<String, String>,
}

/// Entry point of `--figs-child <cache-dir>`: runs the experiment list
/// on this process's global runner and reports on stdout.
pub fn child_main(cache_dir: &Path, traced: bool) -> i32 {
    let mut tr = Tracer::new(traced);
    if traced {
        // Event capture gives per-kernel `sim-job` timelines.
        obs_span::enable(true);
    }
    let opts = HarnessOptions {
        json_path: None,
        progress: false,
        ..HarnessOptions::from_env()
    };
    let mut stats = ChildStats::default();
    let mut clock = HostClock::new(!traced);
    clock.tick();
    let mut cache_s = 0.0;
    for name in EXPERIMENTS {
        println!("@@ {name}");
        let id = tr.enter("bench", "experiment", name);
        let outcome = run_harness_with(&[name], &opts);
        tr.exit(id);
        match outcome {
            Ok(summary) => {
                for e in &summary.experiments {
                    cache_s += e.phases.seconds("cache");
                    stats
                        .experiments
                        .push((e.name.clone(), e.wall_s, e.status.clone()));
                }
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                stats
                    .experiments
                    .push((name.to_string(), 0.0, "rejected".to_string()));
            }
        }
        clock.tick();
    }
    stats.cal_samples = clock.samples().to_vec();
    let c = Runner::global().counters();
    stats.submitted = c.submitted;
    stats.sims_run = c.sims_run;
    stats.memo_hits = c.memo_hits;
    stats.disk_hits = c.disk_hits;
    stats.cache_s = cache_s;
    let agg = obs_span::aggregate();
    stats.busy_s = agg.leaf_totals("sim-job").0 as f64 / 1e9;
    stats.measured_run_s = agg.leaf_totals("measured-run").0 as f64 / 1e9;
    stats.counts = read_cached_reports(cache_dir);
    if traced {
        stats.kernel_run_s = kernel_run_seconds(&obs_span::report().events);
    }
    stats.rss_mb = stats::peak_rss_mb().unwrap_or(0.0);
    println!("@@ result {}", result_json(&stats, &tr));
    0
}

/// Sums the counters of every report the runner stored in `dir`: one
/// blob per simulation run, named `report-<kernel>-s<scale>-...`.
fn read_cached_reports(dir: &Path) -> Counts {
    let mut counts = Counts::default();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return counts;
    };
    let mut files: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    files.sort();
    for path in files {
        let file = path.file_name().and_then(|f| f.to_str()).unwrap_or("");
        let Some(kernel) = KERNELS
            .iter()
            .find(|k| file.starts_with(&format!("report-{k}-s")) && file.ends_with(".ckpt"))
        else {
            continue;
        };
        match std::fs::read(&path).map(|b| SimReport::from_ckpt_bytes(&b)) {
            Ok(Ok(report)) => counts.add_report(kernel, &report),
            Ok(Err(e)) => eprintln!("{}: unreadable report: {e}", path.display()),
            Err(e) => eprintln!("{}: {e}", path.display()),
        }
    }
    counts
}

/// Per kernel, the seconds of `measured-run` events nested in the
/// `sim-job` events labeled with that kernel (same thread, inside its
/// interval).
fn kernel_run_seconds(events: &[nwo_sim::obs::SpanEvent]) -> BTreeMap<String, f64> {
    let jobs: Vec<_> = events.iter().filter(|e| e.path == "sim-job").collect();
    let mut out = BTreeMap::new();
    for run in events.iter().filter(|e| e.path == "sim-job/measured-run") {
        let job = jobs.iter().find(|j| {
            j.tid == run.tid
                && j.start_ns <= run.start_ns
                && run.start_ns + run.dur_ns <= j.start_ns + j.dur_ns
        });
        if let Some(job) = job {
            *out.entry(job.name.clone()).or_insert(0.0) += run.dur_ns as f64 / 1e9;
        }
    }
    out
}

fn result_json(s: &ChildStats, tr: &Tracer) -> String {
    let mut out = format!(
        "{{\"submitted\": {}, \"sims_run\": {}, \"memo_hits\": {}, \"disk_hits\": {}, \
         \"busy_s\": {}, \"measured_run_s\": {}, \"cache_s\": {}, \"rss_mb\": {}, \"experiments\": [",
        s.submitted, s.sims_run, s.memo_hits, s.disk_hits, s.busy_s, s.measured_run_s, s.cache_s, s.rss_mb
    );
    for (i, (name, wall, status)) in s.experiments.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"name\": {}, \"wall_s\": {wall}, \"status\": {}}}",
            quote(name),
            quote(status)
        );
    }
    let _ = write!(
        out,
        "], \"counts\": {}, \"kernel_run_s\": {{",
        s.counts.to_json()
    );
    for (i, (k, v)) in s.kernel_run_s.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {v}", quote(k));
    }
    let samples: Vec<String> = s.cal_samples.iter().map(f64::to_string).collect();
    let _ = write!(
        out,
        "}}, \"cal_samples\": [{}], \"spans\": {}}}",
        samples.join(", "),
        tr.spans_json()
    );
    out
}

fn parse_result(line: &str) -> Option<(ChildStats, Vec<Span>)> {
    let v = json::parse(line).ok()?;
    let num = |k: &str| v.get(k).and_then(JsonValue::as_f64);
    let experiments = v
        .get("experiments")?
        .as_array()?
        .iter()
        .map(|e| {
            Some((
                e.get("name")?.as_str()?.to_string(),
                e.get("wall_s")?.as_f64()?,
                e.get("status")?.as_str()?.to_string(),
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    let kernel_run_s = match v.get("kernel_run_s")? {
        JsonValue::Object(fields) => fields
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect::<Option<_>>()?,
        _ => return None,
    };
    let stats = ChildStats {
        submitted: num("submitted")? as u64,
        sims_run: num("sims_run")? as u64,
        memo_hits: num("memo_hits")? as u64,
        disk_hits: num("disk_hits")? as u64,
        busy_s: num("busy_s")?,
        measured_run_s: num("measured_run_s")?,
        cache_s: num("cache_s")?,
        experiments,
        counts: Counts::from_json(v.get("counts")?)?,
        kernel_run_s,
        rss_mb: num("rss_mb")?,
        cal_samples: v
            .get("cal_samples")?
            .as_array()?
            .iter()
            .map(JsonValue::as_f64)
            .collect::<Option<_>>()?,
    };
    Some((stats, Tracer::parse_spans(v.get("spans")?)?))
}

/// Splits the child's stdout into per-experiment tables (timing lines
/// dropped) and the result line.
fn split_output(stdout: &str) -> (BTreeMap<String, String>, Option<&str>) {
    let mut tables = BTreeMap::new();
    let mut result = None;
    let mut current: Option<String> = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("@@ result ") {
            result = Some(rest);
            current = None;
        } else if let Some(name) = line.strip_prefix("@@ ") {
            tables.insert(name.to_string(), String::new());
            current = Some(name.to_string());
        } else if let Some(name) = &current {
            if !line.starts_with('[') {
                let t = tables.get_mut(name).expect("section opened above");
                t.push_str(line);
                t.push('\n');
            }
        }
    }
    (tables, result)
}

/// Runs one pass in a child process. With `reference` given, each
/// experiment whose table differs, is quarantined or is missing counts
/// as one failed op.
pub fn run_pass(
    work_dir: &Path,
    pass: usize,
    traced: bool,
    reference: Option<&Reference>,
    tr: &mut Tracer,
) -> FigsPass {
    let cache_dir = work_dir.join(format!("figs-cache-{}-{pass}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut pass_out = FigsPass {
        attempted: EXPERIMENTS.len() as u64,
        ..FigsPass::default()
    };
    if let Err(e) = std::fs::create_dir_all(&cache_dir) {
        eprintln!("{}: {e}", cache_dir.display());
        pass_out.failed = pass_out.attempted;
        return pass_out;
    }
    let offset = tr.clock_ns();
    let t0 = Instant::now();
    let output = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .arg("--figs-child")
            .arg(&cache_dir)
            .args(["--trace", if traced { "1" } else { "0" }])
            .env("NWO_JOBS", JOBS.to_string())
            .env("NWO_CACHE_DIR", &cache_dir)
            .env("NWO_HARNESS_JSON", "0")
            .env_remove("NWO_WARMUP")
            .env_remove("NWO_SCALE")
            .env_remove("NWO_PROGRESS")
            .env_remove("NWO_CACHE_FAULTS")
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
    });
    pass_out.wall_s = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&cache_dir);
    let output = match output {
        Ok(o) => o,
        Err(e) => {
            eprintln!("figs-sweep: cannot run the child process: {e}");
            pass_out.failed = pass_out.attempted;
            return pass_out;
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (tables, result) = split_output(&stdout);
    let parsed = result.and_then(parse_result);
    if !output.status.success() || parsed.is_none() {
        eprintln!(
            "figs-sweep: child pass failed ({}) without a result",
            output.status
        );
    }
    if let Some((stats, spans)) = parsed {
        tr.adopt(spans, offset);
        pass_out.wall_s -= stats.cal_samples.iter().sum::<f64>();
        pass_out.stats = stats;
    }
    for name in EXPERIMENTS {
        let status = pass_out
            .stats
            .experiments
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, s)| s.as_str());
        let verdict = match (status, tables.get(name)) {
            (Some("ok"), Some(table)) => reference.map_or(Ok(()), |r| r.check(name, table)),
            (Some(s), _) => Err(format!("{name}: experiment status `{s}`")),
            (None, _) => Err(format!("{name}: no result from the child")),
        };
        if let Err(e) = verdict {
            eprintln!("figs-sweep: {e}");
            pass_out.failed += 1;
        }
    }
    pass_out.tables = tables;
    pass_out
}

/// Lines comparing the model's integer-unit power reduction (the
/// `SPEC avg` / `media avg` lines of the fig7 table) with the paper's.
pub fn model_accuracy(fig7: &str) -> Vec<String> {
    PAPER_REDUCTION
        .iter()
        .filter_map(|(suite, paper)| {
            let line = fig7
                .lines()
                .find(|l| l.starts_with(&format!("{suite} avg ")))?;
            let model: f64 = line
                .split_whitespace()
                .nth(2)?
                .trim_end_matches('%')
                .parse()
                .ok()?;
            Some(format!(
                "model accuracy: {suite} int-unit power reduction {model:.1}% (paper {paper:.1}%), \
                 error {:+.1} pts",
                model - paper
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_accuracy_reads_the_fig7_average_lines() {
        let fig7 = "benchmark  baseline  gated  reduction\n\
                    SPEC avg 55.5%   (paper: 54.1%)\n\
                    media avg 52.5%  (paper: 57.9%)\n";
        let lines = model_accuracy(fig7);
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains("55.5% (paper 54.1%), error +1.4 pts"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("52.5% (paper 57.9%), error -5.4 pts"),
            "{}",
            lines[1]
        );
    }

    #[test]
    fn child_output_splits_into_tables_and_result() {
        let out = "@@ fig1\n== Figure 1 ==\nrow\n[fig1  wall 1.00s]\n[total  wall 1.0s]\n\
                   @@ fig2\nrow2\n@@ result {\"x\": 1}\n";
        let (tables, result) = split_output(out);
        assert_eq!(tables["fig1"], "== Figure 1 ==\nrow\n");
        assert_eq!(tables["fig2"], "row2\n");
        assert_eq!(result, Some("{\"x\": 1}"));
    }

    #[test]
    fn result_json_round_trips() {
        let mut stats = ChildStats {
            submitted: 150,
            sims_run: 64,
            memo_hits: 86,
            busy_s: 41.5,
            experiments: vec![("fig1".into(), 3.25, "ok".into())],
            rss_mb: 12.5,
            cal_samples: vec![0.005, 0.0062],
            ..ChildStats::default()
        };
        stats.counts.add("cycles.gcc", 7);
        stats.kernel_run_s.insert("gcc".into(), 0.5);
        let mut tr = Tracer::new(true);
        tr.time("bench", "experiment", "fig1", || ());
        let (back, spans) = parse_result(&result_json(&stats, &tr)).unwrap();
        assert_eq!(back.counts, stats.counts);
        assert_eq!(back.experiments, stats.experiments);
        assert_eq!(back.kernel_run_s, stats.kernel_run_s);
        assert_eq!(back.cal_samples, stats.cal_samples);
        assert_eq!(
            (back.submitted, back.sims_run, back.memo_hits),
            (150, 64, 86)
        );
        assert_eq!(spans, tr.spans());
    }
}
