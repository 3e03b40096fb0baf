//! Observability pipeline: trace-event ordering over random programs,
//! JSONL stream parseability, and stability of the `--json` snapshot
//! against a golden key schema.

use std::fmt::Write as _;
use std::path::PathBuf;

use nwo::core::PackConfig;
use nwo::isa::{assemble, Opcode, Program};
use nwo::sim::obs::{json, JsonlSink};
use nwo::sim::{SimConfig, Simulator};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Step {
    /// Operate-format op over two of the low registers.
    Op(Opcode, u8, u8, u8),
    /// Operate-literal form.
    OpLit(Opcode, u8, u8, u8),
    /// Store a register to the scratch buffer, then load it back.
    StoreLoad(u8, u8, u8),
}

fn alu_opcode() -> impl Strategy<Value = Opcode> {
    prop::sample::select(vec![
        Opcode::Addq,
        Opcode::Subq,
        Opcode::Addl,
        Opcode::And,
        Opcode::Bis,
        Opcode::Xor,
        Opcode::Sll,
        Opcode::Srl,
        Opcode::Cmplt,
        Opcode::Mulq,
        Opcode::Sextb,
        Opcode::Sextw,
    ])
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (alu_opcode(), 0u8..8, 0u8..8, 0u8..8).prop_map(|(op, a, b, c)| Step::Op(op, a, b, c)),
        (alu_opcode(), 0u8..8, 0u8..=255, 0u8..8)
            .prop_map(|(op, a, l, c)| Step::OpLit(op, a, l, c)),
        (0u8..8, 0u8..8, 0u8..8).prop_map(|(src, dst, slot)| Step::StoreLoad(src, dst, slot)),
    ]
}

/// Builds a looped program: seed r1..r8, run the body `iters` times
/// (the backward branch exercises prediction and recovery events),
/// then outq every register.
fn build_program(seeds: &[i32], steps: &[Step], iters: u8) -> Program {
    let mut src = String::from(".data\nscratch: .space 128\n.text\nmain:\n");
    let _ = writeln!(src, "    la   a0, scratch");
    for (i, &v) in seeds.iter().enumerate() {
        let _ = writeln!(src, "    li   r{reg}, {v}", reg = i + 1);
    }
    let _ = writeln!(src, "    li   r9, {iters}");
    src.push_str("loop:\n");
    for s in steps {
        match s {
            Step::Op(op, a, b, c) => {
                let _ = writeln!(
                    src,
                    "    {} r{}, r{}, r{}",
                    op.mnemonic(),
                    a + 1,
                    b + 1,
                    c + 1
                );
            }
            Step::OpLit(op, a, lit, c) => {
                let _ = writeln!(
                    src,
                    "    {} r{}, #{}, r{}",
                    op.mnemonic(),
                    a + 1,
                    lit,
                    c + 1
                );
            }
            Step::StoreLoad(srcr, dst, slot) => {
                let _ = writeln!(src, "    stq  r{}, {}(a0)", srcr + 1, *slot as u32 * 8);
                let _ = writeln!(src, "    ldq  r{}, {}(a0)", dst + 1, *slot as u32 * 8);
            }
        }
    }
    src.push_str("    subq r9, 1, r9\n    bgt  r9, loop\n");
    for i in 1..=8 {
        let _ = writeln!(src, "    outq r{i}");
    }
    src.push_str("    halt\n");
    assemble(&src).expect("generated program must assemble")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every committed instruction's stage timestamps are ordered
    /// `fetched <= dispatched <= issued <= completed <= committed`,
    /// commits retire in order, and sequence numbers are dense — on
    /// arbitrary programs under every machine configuration.
    #[test]
    fn commit_records_are_stage_ordered(
        seeds in prop::collection::vec(-100_000i32..100_000, 8),
        steps in prop::collection::vec(step(), 1..40),
        iters in 1u8..6,
    ) {
        let program = build_program(&seeds, &steps, iters);
        for config in [
            SimConfig::default(),
            SimConfig::default().with_packing(PackConfig::with_replay()),
            SimConfig::default().with_eight_issue(),
        ] {
            let mut sim = Simulator::new(&program, config.with_trace(1 << 14));
            let report = sim.run(u64::MAX).expect("simulator halts");
            let commits = sim.trace_commits();
            prop_assert_eq!(commits.len() as u64, report.stats.committed.min(1 << 14));
            for (i, r) in commits.iter().enumerate() {
                prop_assert_eq!(r.seq, i as u64, "sequence numbers are dense");
                prop_assert!(r.fetched_at <= r.dispatched_at, "F<=D at seq {}", r.seq);
                prop_assert!(r.dispatched_at <= r.issued_at, "D<=I at seq {}", r.seq);
                prop_assert!(r.issued_at <= r.completed_at, "I<=X at seq {}", r.seq);
                prop_assert!(r.completed_at <= r.committed_at, "X<=C at seq {}", r.seq);
            }
            for pair in commits.windows(2) {
                prop_assert!(pair[0].committed_at <= pair[1].committed_at, "in-order commit");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Streaming a run through a [`JsonlSink`] yields one parseable JSON
    /// object per line, with known event discriminators, non-decreasing
    /// cycles, and exactly one `commit` line per committed instruction.
    #[test]
    fn jsonl_stream_is_parseable(
        seeds in prop::collection::vec(-100_000i32..100_000, 8),
        steps in prop::collection::vec(step(), 1..30),
        iters in 1u8..5,
    ) {
        const KNOWN: [&str; 8] = [
            "fetch", "dispatch", "issue", "pack", "replay_squash",
            "writeback", "branch_mispredict", "commit",
        ];
        let program = build_program(&seeds, &steps, iters);
        let path = std::env::temp_dir().join(format!("nwo-obs-prop-{}.jsonl", std::process::id()));
        let mut sim = Simulator::new(&program, SimConfig::default().with_packing(PackConfig::with_replay()));
        sim.set_trace_sink(Box::new(JsonlSink::create(&path).expect("temp file")));
        let report = sim.run(u64::MAX).expect("simulator halts");
        drop(sim); // flush on drop, like the CLI at exit

        let text = std::fs::read_to_string(&path).expect("trace file readable");
        let _ = std::fs::remove_file(&path);
        let mut last_cycle = 0u64;
        let mut commits = 0u64;
        for (n, line) in text.lines().enumerate() {
            let v = json::parse(line)
                .unwrap_or_else(|e| panic!("line {}: {e}: {line}", n + 1));
            let ev = v.get("ev").and_then(|e| e.as_str()).expect("ev field");
            prop_assert!(KNOWN.contains(&ev), "unknown event {ev:?}");
            let cycle = v.get("cycle").and_then(|c| c.as_u64()).expect("cycle field");
            prop_assert!(cycle >= last_cycle, "cycles never rewind in the stream");
            last_cycle = cycle;
            if ev == "commit" {
                commits += 1;
                prop_assert!(v.get("seq").and_then(|s| s.as_u64()).is_some());
            }
        }
        prop_assert_eq!(commits, report.stats.committed, "one commit line per retired op");
    }
}

/// A fixed, fully deterministic kernel for the golden snapshot test.
fn golden_program() -> Program {
    assemble(
        r#"
        .data
        buf: .space 256
        .text
        main:
            la   a0, buf
            li   t0, 0
            li   t1, 32
        loop:
            and  t0, 255, t2
            stq  t2, 0(a0)
            ldq  t3, 0(a0)
            addq t0, t3, t0
            addq a0, 8, a0
            subq t1, 1, t1
            bgt  t1, loop
            outq t0
            halt
    "#,
    )
    .expect("golden kernel assembles")
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/snapshot.keys")
}

/// The `--json` snapshot is byte-stable across identical runs, parses
/// with the crate's own JSON parser, agrees with the report, and its
/// key schema matches the checked-in golden list.
#[test]
fn snapshot_json_is_stable_and_parseable() {
    let program = golden_program();
    let run_once = || {
        let mut sim = Simulator::new(&program, SimConfig::default());
        let report = sim.run(u64::MAX).expect("halts");
        (sim.snapshot(), report)
    };
    let (snap, report) = run_once();
    let (snap2, _) = run_once();
    let js = snap.to_json();
    assert_eq!(
        js,
        snap2.to_json(),
        "identical runs must serialize identically"
    );

    let v = json::parse(&js).expect("snapshot JSON parses");
    let s = &report.stats;
    assert_eq!(v.get("sim.cycles").and_then(|x| x.as_u64()), Some(s.cycles));
    assert_eq!(
        v.get("sim.committed").and_then(|x| x.as_u64()),
        Some(s.committed)
    );
    assert_eq!(
        v.get("stall.total").and_then(|x| x.as_u64()),
        Some(4 * s.cycles - s.committed),
        "snapshot carries the exact lost-slot conservation total"
    );
    assert!(v.get("mem.l1d.hits").and_then(|x| x.as_u64()).unwrap_or(0) > 0);
    // The Fig 1 operand-width distribution rides along as a histogram.
    let width = v.get("width.committed").expect("width histogram exported");
    assert!(
        width.get("count").and_then(|x| x.as_u64()).unwrap_or(0) > 0,
        "committed-width histogram must carry the Fig 1 distribution"
    );
    assert!(
        width.get("buckets").is_some(),
        "histogram JSON exposes per-bit-width buckets"
    );
    assert!(
        v.get("power.baseline_mw_per_cycle")
            .and_then(|x| x.as_f64())
            .unwrap_or(0.0)
            > 0.0
    );

    // The key schema is the machine-readable contract: consumers index
    // by name, so adding keys is fine but renaming/removing is a break.
    // Regenerate with the command in the assertion message.
    let actual: String = snap.iter().map(|(k, _)| format!("{k}\n")).collect();
    if std::env::var_os("NWO_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_path().parent().expect("has parent")).expect("mkdir");
        std::fs::write(golden_path(), &actual).expect("write golden");
    }
    let golden = std::fs::read_to_string(golden_path())
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path().display()));
    assert_eq!(
        actual, golden,
        "snapshot key schema drifted from tests/golden/snapshot.keys; if \
         intentional, update the golden file to the keys printed above"
    );
}

/// A retaining sink sized above the program's commit count must capture
/// every commit — no phantom records, no premature wrap — and the
/// pipeline diagram must render the complete, short trace.
#[test]
fn ring_sink_and_pipeview_handle_fewer_commits_than_capacity() {
    use nwo::sim::obs::{pipeview, RingSink};

    let program = golden_program();
    for sink in [RingSink::keep_first(1 << 14), RingSink::keep_last(1 << 14)] {
        let mut sim = Simulator::new(&program, SimConfig::default());
        sim.set_trace_sink(Box::new(sink));
        let report = sim.run(u64::MAX).expect("halts");
        let commits = sim.trace_commits();
        assert!(
            (commits.len() as u64) < (1 << 14),
            "kernel must be smaller than the ring for this test"
        );
        assert_eq!(
            commits.len() as u64,
            report.stats.committed,
            "a half-empty ring holds exactly the committed records"
        );
        for (i, r) in commits.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "records stay dense and ordered");
        }

        let diagram = pipeview::render(&commits, &|_, raw| {
            nwo::isa::Instr::decode(raw)
                .map(|ins| ins.to_string())
                .unwrap_or_else(|_| format!("{raw:08x}"))
        });
        assert!(!diagram.is_empty());
        assert!(
            diagram.contains("addq"),
            "diagram disassembles the kernel body:\n{diagram}"
        );
    }
}

/// A sink that reports itself disabled yet counts every event it is
/// handed: a [`nwo::sim::obs::NullSink`] whose stray emits are visible.
struct MutedProbe(std::sync::Arc<std::sync::atomic::AtomicU64>);

impl nwo::sim::obs::TraceSink for MutedProbe {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&mut self, _event: &nwo::sim::obs::TraceEvent) {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// The machine caches `TraceSink::enabled` when a sink is installed, so
/// swapping sinks between `run` slices must switch event emission on and
/// off: a retaining sink holds exactly the commits of its own slice, and
/// a disabled sink is never handed an event.
#[test]
fn swapping_sinks_between_run_slices_switches_tracing() {
    use nwo::sim::obs::{NullSink, RingSink, TraceSink};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let muted = Arc::new(AtomicU64::new(0));
    let mut sim = Simulator::new(&golden_program(), SimConfig::default());
    // (instruction budget, sink) per slice: off → on → off → on.
    let slices: [(u64, Box<dyn TraceSink>); 4] = [
        (50, Box::new(NullSink)),
        (100, Box::new(RingSink::keep_first(1 << 14))),
        (150, Box::new(MutedProbe(muted.clone()))),
        (u64::MAX, Box::new(RingSink::keep_first(1 << 14))),
    ];
    let mut start = 0;
    for (i, (budget, sink)) in slices.into_iter().enumerate() {
        let retains = i % 2 == 1;
        sim.set_trace_sink(sink);
        let end = sim.run(budget).expect("runs").stats.committed;
        assert!(end > start, "slice {i} commits");
        let seqs: Vec<u64> = sim.trace_commits().iter().map(|r| r.seq).collect();
        let expected: Vec<u64> = if retains {
            (start..end).collect()
        } else {
            Vec::new()
        };
        assert_eq!(
            seqs, expected,
            "slice {i}: the installed sink sees its slice"
        );
        start = end;
    }
    assert_eq!(
        muted.load(Ordering::Relaxed),
        0,
        "no event reaches a disabled sink"
    );
}

/// Fixed name pool for the span-nesting property (the span API takes
/// `&'static str`); the `pt-` prefix keeps these events distinguishable
/// from spans recorded by other tests in this process.
const PT_NAMES: [&str; 4] = ["pt-a", "pt-b", "pt-c", "pt-d"];

/// Interprets a random action tape as a span tree: values 0..4 open a
/// guard for the matching [`PT_NAMES`] entry (depth-capped), 4 closes
/// the innermost open guard. Leftover guards unwind innermost-first,
/// exactly like scope exit.
fn exec_span_actions(actions: &[u8]) {
    let mut guards = Vec::new();
    for &a in actions {
        match a {
            0..=3 if guards.len() < 6 => {
                guards.push(nwo::sim::obs::span::span(PT_NAMES[a as usize]));
            }
            4 => drop(guards.pop()),
            _ => {}
        }
    }
    while let Some(g) = guards.pop() {
        drop(g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// RAII span guards produce well-formed trees: on one thread, any
    /// two recorded spans are either disjoint in time or properly
    /// nested, and a nested span's aggregate path extends its
    /// enclosing span's path — for arbitrary nesting shapes.
    #[test]
    fn span_events_nest_without_overlap(
        actions in prop::collection::vec(0u8..5, 1..48),
    ) {
        use nwo::sim::obs::span;

        span::enable(true);
        // Drain events left over from the previous case (and from any
        // concurrently profiling test in this process).
        let _ = span::report();

        // Guarantee at least one recorded span whatever the tape says.
        exec_span_actions(&[0]);
        exec_span_actions(&actions);

        let events: Vec<_> = span::report()
            .events
            .into_iter()
            .filter(|e| e.name.starts_with("pt-"))
            .collect();
        prop_assert!(!events.is_empty(), "the tree recorded at least its root");
        let tid = events[0].tid;
        for e in &events {
            prop_assert_eq!(e.tid, tid, "single-threaded case, single tid");
        }

        for (i, a) in events.iter().enumerate() {
            let (a0, a1) = (a.start_ns, a.start_ns + a.dur_ns);
            for b in &events[i + 1..] {
                let (b0, b1) = (b.start_ns, b.start_ns + b.dur_ns);
                let disjoint = a1 <= b0 || b1 <= a0;
                let a_in_b = b0 <= a0 && a1 <= b1;
                let b_in_a = a0 <= b0 && b1 <= a1;
                prop_assert!(
                    disjoint || a_in_b || b_in_a,
                    "spans overlap without nesting: {:?} [{a0},{a1}] vs {:?} [{b0},{b1}]",
                    a.path, b.path
                );
                // Containment in time must match containment in the
                // aggregate path (same-path spans are sequential
                // re-entries, handled by the disjoint arm).
                if a_in_b && !disjoint && a.path != b.path {
                    prop_assert!(
                        a.path.starts_with(&format!("{}/", b.path)),
                        "{:?} runs inside {:?} but is not its descendant",
                        a.path, b.path
                    );
                }
                if b_in_a && !disjoint && a.path != b.path {
                    prop_assert!(
                        b.path.starts_with(&format!("{}/", a.path)),
                        "{:?} runs inside {:?} but is not its descendant",
                        b.path, a.path
                    );
                }
            }
        }

        // Children never outlive their parent: every event with a
        // nested path fits inside some event carrying the parent path.
        for e in &events {
            if let Some(parent_path) = e.path.rfind('/').map(|cut| &e.path[..cut]) {
                let inside_parent = events.iter().any(|p| {
                    p.path == parent_path
                        && p.start_ns <= e.start_ns
                        && e.start_ns + e.dur_ns <= p.start_ns + p.dur_ns
                });
                prop_assert!(
                    inside_parent,
                    "{:?} has no enclosing {:?} event",
                    e.path,
                    parent_path
                );
            }
        }
    }
}
