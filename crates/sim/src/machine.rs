//! The cycle-level out-of-order pipeline: fetch → dispatch (RUU/LSQ
//! allocation, renaming, width tagging) → out-of-order issue (with
//! operation packing) → execute/writeback (with replay squash and
//! misprediction recovery) → in-order commit.
//!
//! Stage order within a cycle is commit, writeback, issue, dispatch,
//! fetch — the SimpleScalar reverse-pipeline walk, which lets a value
//! written back in cycle *t* feed an instruction issuing in cycle *t*.
//!
//! Scheduling is event-driven, as in `sim-outorder`: instructions live
//! in a fixed ring of slots from fetch to commit, writeback wakes
//! consumers through producer→consumer lists into an age-ordered ready
//! set, issue walks only that set, and issue schedules each completion
//! on a wheel keyed by cycle (see [`crate::sched`]). No stage rescans
//! the window.

use crate::config::{Optimization, PredictorChoice, SimConfig};
use crate::frontend::{blank_record, Frontend};
use crate::sched::{Completion, CompletionWheel, ReadySet};
use crate::stats::{pair_width, SimStats};
use nwo_bpred::{ControlInfo, DirLookup, Predictor, RasCheckpoint};
use nwo_core::{
    can_pack, gate_level, replay_candidate, replay_mispredicts, GateLevel, WideOperand, WidthTag,
};
use nwo_isa::{access_bytes, ExecRecord, OpClass, Opcode, Program, Reg};
use nwo_mem::Hierarchy;
use nwo_obs::{
    CommitRecord, NullSink, RingSink, StallBreakdown, StallCause, TraceEvent, TraceSink,
};
use nwo_verify::{DatapathFault, DivergenceReport, OracleChecker};
use std::collections::VecDeque;
use std::fmt;

/// Errors the simulator can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The correct path fetched an undecodable or out-of-text PC.
    BadFetch {
        /// The faulting PC.
        pc: u64,
    },
    /// No instruction committed for a very long time — a modelling bug,
    /// never expected on well-formed programs. Carries a diagnostic
    /// snapshot so the hang is debuggable from the error alone.
    Deadlock {
        /// The cycle at which the deadlock was declared.
        cycle: u64,
        /// Machine state at the moment the deadlock was declared.
        snapshot: Box<DeadlockSnapshot>,
    },
    /// The configured `max_cycles` limit was reached.
    CycleLimit {
        /// The limit that was hit.
        limit: u64,
    },
    /// The lockstep oracle ([`SimConfig::verify`]) caught the core
    /// retiring architectural state that disagrees with the reference
    /// emulator.
    Divergence(Box<DivergenceReport>),
}

/// Diagnostic state attached to [`SimError::Deadlock`]: where commit
/// stopped, what the stall attribution says, and the last committed
/// instructions' pipeline diagram (when a retaining trace sink is
/// installed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockSnapshot {
    /// Cycle of the last successful commit.
    pub last_commit_cycle: u64,
    /// Stall-cycle attribution accumulated up to the deadlock.
    pub stall: StallBreakdown,
    /// Description of the window-head instruction blocking commit
    /// (`None` when the window is empty).
    pub head: Option<String>,
    /// Pipeview rendering of the most recent retained commit records
    /// (empty without a retaining sink).
    pub pipeview: String,
}

impl fmt::Display for DeadlockSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "last commit at cycle {}", self.last_commit_cycle)?;
        match &self.head {
            Some(head) => writeln!(f, "window head: {head}")?,
            None => writeln!(f, "window head: <empty window>")?,
        }
        let mut causes: Vec<(StallCause, u64)> =
            self.stall.iter().filter(|&(_, n)| n > 0).collect();
        causes.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.name().cmp(b.0.name())));
        write!(f, "stall slots so far:")?;
        for (cause, slots) in causes.iter().take(4) {
            write!(f, " {cause}={slots}")?;
        }
        writeln!(f)?;
        write!(f, "{}", self.pipeview)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadFetch { pc } => write!(f, "invalid instruction fetch at {pc:#x}"),
            SimError::Deadlock { cycle, snapshot } => {
                writeln!(f, "pipeline deadlock detected at cycle {cycle}")?;
                write!(f, "{snapshot}")
            }
            SimError::CycleLimit { limit } => write!(f, "cycle limit {limit} reached"),
            SimError::Divergence(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for SimError {}

/// One committed instruction's flow through the pipeline (SimpleScalar's
/// `ptrace`). Cycles are absolute; `fetched_at <= dispatched_at <=
/// issued_at < completed_at <= committed_at` always holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Instruction address.
    pub pc: u64,
    /// The decoded instruction.
    pub instr: nwo_isa::Instr,
    /// Cycle the instruction entered the fetch queue.
    pub fetched_at: u64,
    /// Cycle it was dispatched into the RUU.
    pub dispatched_at: u64,
    /// Cycle it (last) began execution.
    pub issued_at: u64,
    /// Cycle its result was written back.
    pub completed_at: u64,
    /// Cycle it retired.
    pub committed_at: u64,
    /// Issued as a member of a packed group (Section 5).
    pub packed: bool,
    /// Was squashed at least once by a replay-packing carry (Section 5.3).
    pub replayed: bool,
}

/// Sentinel of an empty consumer list ([`Entry::consumers`]).
const NO_EDGE: u32 = u32::MAX;

/// Dependency-edge nodes per ring slot: an instruction waits on at most
/// three producers (operand a, operand b, and store data or the old
/// value of a conditional move).
const EDGES_PER_SLOT: usize = 3;

/// Sentinel of "no sequence number" ([`Entry::store_base_producer`]).
const NO_SEQ: u64 = u64::MAX;

/// One RUU ring slot: an instruction from fetch to commit. Fetch
/// executes straight into the slot's record and re-initialises the
/// other fields in place; dispatch fills in the scheduling fields, and
/// nothing is moved afterwards. Predictor state of control instructions
/// lives beside the ring, in [`Machine::ctrl`], so that the slot stays
/// small (see DESIGN.md, "Hot/cold slot").
#[derive(Debug, Clone)]
struct Entry {
    seq: u64,
    /// Allocation id, unique for the life of the machine: tells a
    /// squashed occupant's pending completion from the slot's next one
    /// (sequence numbers are reused after a squash).
    uid: u64,
    rec: ExecRecord,
    class: OpClass,
    spec: bool,
    /// A control instruction: its predictor state is in
    /// [`Machine::ctrl`].
    is_ctrl: bool,
    // Dependency state.
    idep_remaining: u8,
    /// Head of the list of consumers waiting on this instruction's
    /// result: an edge-node index (see [`Machine::edge_next`]), youngest
    /// consumer first; [`NO_EDGE`] when empty.
    consumers: u32,
    // Operand metadata for gating/packing.
    tag_a: WidthTag,
    tag_b: WidthTag,
    from_load: bool,
    /// [`pair_width`] of the operands, computed when the instruction
    /// first issues and shared by every width statistic.
    width: u8,
    // Timing state.
    fetched_at: u64,
    dispatched_at: u64,
    issued_at: u64,
    earliest_issue: u64,
    issued: bool,
    in_group: bool,
    completed: bool,
    complete_at: u64,
    /// Load that went to the hierarchy and missed in L1D (its in-flight
    /// cycles are charged to [`StallCause::DcacheMiss`] when it blocks
    /// commit).
    dmiss: bool,
    // Control state.
    mispredicted: bool,
    // Memory state: the in-flight producer of a store's base register,
    // or [`NO_SEQ`]. The store's address is considered computed once
    // this producer completes (split STA/STD, as in the Alpha 21264).
    store_base_producer: u64,
    // Packing state.
    replay_wide: Option<WideOperand>,
    replay_attempted: bool,
    exec_stats_counted: bool,
    // Result metadata.
    result_tag_known: bool,
}

impl Entry {
    /// A never-used slot.
    fn vacant() -> Entry {
        Entry {
            seq: u64::MAX,
            uid: u64::MAX,
            rec: blank_record(),
            class: OpClass::System,
            spec: false,
            is_ctrl: false,
            idep_remaining: 0,
            consumers: NO_EDGE,
            tag_a: WidthTag::unknown(),
            tag_b: WidthTag::unknown(),
            from_load: false,
            width: 0,
            fetched_at: 0,
            dispatched_at: 0,
            issued_at: 0,
            earliest_issue: 0,
            issued: false,
            in_group: false,
            completed: false,
            complete_at: u64::MAX,
            dmiss: false,
            mispredicted: false,
            store_base_producer: NO_SEQ,
            replay_wide: None,
            replay_attempted: false,
            exec_stats_counted: false,
            result_tag_known: false,
        }
    }

    /// Re-initialises every field but the record, which fetch has just
    /// executed into, for a freshly fetched instruction; the scheduling
    /// fields are set at dispatch. The exhaustive pattern makes a new
    /// field a compile error here until it is reset too.
    #[inline]
    fn refill(&mut self, seq: u64, uid: u64, class: OpClass, spec: bool, fetched_at: u64) {
        let Entry {
            seq: e_seq,
            uid: e_uid,
            rec: _,
            class: e_class,
            spec: e_spec,
            is_ctrl,
            idep_remaining,
            consumers,
            tag_a,
            tag_b,
            from_load,
            width,
            fetched_at: e_fetched_at,
            dispatched_at,
            issued_at,
            earliest_issue,
            issued,
            in_group,
            completed,
            complete_at,
            dmiss,
            mispredicted,
            store_base_producer,
            replay_wide,
            replay_attempted,
            exec_stats_counted,
            result_tag_known,
        } = self;
        *e_seq = seq;
        *e_uid = uid;
        *e_class = class;
        *e_spec = spec;
        *is_ctrl = false;
        *idep_remaining = 0;
        *consumers = NO_EDGE;
        *tag_a = WidthTag::unknown();
        *tag_b = WidthTag::unknown();
        *from_load = false;
        *width = 0;
        *e_fetched_at = fetched_at;
        *dispatched_at = 0;
        *issued_at = 0;
        *earliest_issue = 0;
        *issued = false;
        *in_group = false;
        *completed = false;
        *complete_at = u64::MAX;
        *dmiss = false;
        *mispredicted = false;
        *store_base_producer = NO_SEQ;
        *replay_wide = None;
        *replay_attempted = false;
        *exec_stats_counted = false;
        *result_tag_known = false;
    }

    fn is_store(&self) -> bool {
        self.class == OpClass::Store
    }

    fn is_load(&self) -> bool {
        self.class == OpClass::Load
    }

    fn dest(&self) -> Option<Reg> {
        self.rec.dest.filter(|r| !r.is_zero())
    }
}

/// Predictor state of one in-flight control instruction, kept in
/// [`Machine::ctrl`] at its ring slot: fetch writes it, misprediction
/// recovery and commit read it.
#[derive(Debug, Clone, Copy)]
struct CtrlSlot {
    info: ControlInfo,
    ras_cp: Option<RasCheckpoint>,
    dir_lookup: Option<DirLookup>,
}

impl CtrlSlot {
    /// A never-used slot.
    fn vacant() -> CtrlSlot {
        CtrlSlot {
            info: ControlInfo {
                is_cond: false,
                is_call: false,
                is_return: false,
                is_indirect: false,
                direct_target: None,
                return_addr: 0,
            },
            ras_cp: None,
            dir_lookup: None,
        }
    }
}

/// What the issue stage decided to do with a load this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadAction {
    /// Blocked behind a store with an unknown address or partial overlap.
    Wait,
    /// Forward from the given completed store.
    Forward,
    /// Access the data cache.
    Access,
}

/// The full machine state for one simulation.
pub struct Machine {
    pub(crate) config: SimConfig,
    frontend: Frontend,
    predictor: Option<Predictor>,
    hierarchy: Hierarchy,
    // Pipeline structures. The RUU and the fetch queue share one ring of
    // slots: instruction `seq` lives in slot `seq & ring_mask` from fetch
    // to commit. Sequence numbers are contiguous — the RUU holds
    // `head_seq..ifq_seq` in age order and the fetch queue
    // `ifq_seq..fetch_seq` — and a squash rewinds `ifq_seq` and
    // `fetch_seq`, so numbers are reused.
    ring: Vec<Entry>,
    /// Predictor state of the control instructions in the ring, by slot
    /// (valid where [`Entry::is_ctrl`] is set).
    ctrl: Vec<CtrlSlot>,
    ring_mask: usize,
    /// `log2` of the L1 I-cache block size: PC to fetch line.
    iline_shift: u32,
    head_seq: u64,
    ifq_seq: u64,
    fetch_seq: u64,
    /// Allocation ids handed to fetched instructions ([`Entry::uid`]).
    next_uid: u64,
    /// RUU entries ready to issue, walked in age order by `issue`.
    ready: ReadySet,
    /// Issued instructions by completion cycle, drained by `writeback`.
    wheel: CompletionWheel,
    /// Scratch for the completions of one cycle.
    completing: Vec<Completion>,
    /// Producer→consumer wakeup lists. Edge node `EDGES_PER_SLOT * slot
    /// + k` stands for the `k`-th pending source operand of the
    /// instruction in `slot`; `edge_next[node]` links to the next node
    /// of the same producer's list ([`NO_EDGE`] ends it).
    edge_next: Vec<u32>,
    /// Memory operations in the RUU (the LSQ occupancy).
    lsq_len: usize,
    /// Sequence numbers of the stores in the LSQ, oldest first.
    stores: VecDeque<u64>,
    /// Scratch for the packing groups of one issue cycle.
    groups: Vec<OpenGroup>,
    rename: [Option<u64>; 32],
    committed_tag_known: [bool; 32],
    /// Per-PC 2-bit confidence for replay packing, indexed by text
    /// word (see [`replay_slot`]): replay traps are expensive,
    /// so the issue logic stops speculating on instructions whose
    /// low-16-bit carries keep rippling (e.g. accumulators with random
    /// low bits). Address arithmetic stays confident. This is an
    /// extension beyond the paper, which assumes carries are "relatively
    /// infrequent" — true for addresses, not for every add.
    replay_confidence: Vec<u8>,
    committed_from_load: [bool; 32],
    // Timing state.
    pub(crate) cycle: u64,
    fetch_resume: u64,
    /// Why fetch is paused until `fetch_resume` — the cause empty-window
    /// commit cycles are charged to while the pause lasts.
    fetch_stall: StallCause,
    muldiv_busy_until: u64,
    last_commit_cycle: u64,
    pub(crate) done: bool,
    // Architected output (written at commit).
    out_bytes: Vec<u8>,
    out_quads: Vec<u64>,
    sink: Box<dyn TraceSink>,
    /// `sink.enabled()`, read once when the sink is installed (the
    /// [`TraceSink::enabled`] contract).
    trace_on: bool,
    /// Lockstep architectural oracle ([`SimConfig::verify`]): a second
    /// functional emulator advanced and compared at every commit.
    oracle: Option<OracleChecker>,
    /// One armed deterministic datapath fault (fault campaigns): fires
    /// at the first eligible commit, flipping a gated upper bit of the
    /// retired value.
    pending_fault: Option<DatapathFault>,
    // Statistics.
    pub(crate) stats: SimStats,
    /// Per-PC lost-commit-slot attribution (`--stall-detail`): when
    /// enabled, every slot charged to the global [`SimStats::stall`]
    /// breakdown is also charged to the PC of the instruction at the
    /// head of the window (or the fetch PC when the window is empty).
    stall_pcs: Option<std::collections::HashMap<u64, nwo_obs::StallBreakdown>>,
    /// Interval statistics (`--interval-stats N`): every `0.every`
    /// cycles the full metrics snapshot is appended to `0.sink` as one
    /// JSONL line.
    interval: Option<(u64, nwo_obs::JsonlSink<Box<dyn std::io::Write>>)>,
    /// Interval telemetry (`--telemetry-out`): compact per-interval
    /// delta samples, distinct from the cumulative `interval` stream.
    telemetry: Option<Telemetry>,
    /// Deterministic phase counters exported as the `prof.*` snapshot
    /// group. Deliberately machine-local (never read from the global
    /// profiler) so snapshots stay byte-identical between runs even
    /// when other threads are profiling.
    phase: PhaseCounters,
    /// Wall time spent in oracle commit checks during the current
    /// `run`, batched here (one `Instant` pair per commit is the whole
    /// cost) and flushed once per run to the span profiler as an
    /// `oracle-step` child — a per-commit `SpanGuard` would swamp the
    /// measurement with its own bookkeeping.
    oracle_span_ns: u64,
    oracle_span_checks: u64,
}

/// Deterministic lifetime counters behind the `prof.*` snapshot group.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseCounters {
    warmup_calls: u64,
    warmup_insts: u64,
    run_calls: u64,
    ckpt_restores: u64,
}

/// State of the `--telemetry-out` stream: the sink plus the previous
/// sample's cumulative values, so each emitted line carries deltas
/// over its interval rather than run-to-date totals.
struct Telemetry {
    every: u64,
    sink: nwo_obs::JsonlSink<Box<dyn std::io::Write>>,
    samples: u64,
    last_cycle: u64,
    last_committed: u64,
    last_stall: nwo_obs::StallBreakdown,
    last_width: crate::stats::WidthHistogram,
    /// Cumulative (baseline, gated) mW·cycle sums at the last sample.
    last_power: (f64, f64),
}

/// Deciles (p10..p90) of the operand-width distribution over one
/// telemetry interval: `now - last` per width bucket, then for each
/// decile `d` the smallest width whose cumulative interval count
/// reaches `d/10` of the interval total. All zeros for an empty
/// interval.
fn width_deciles(
    now: &crate::stats::WidthHistogram,
    last: &crate::stats::WidthHistogram,
) -> [u32; 9] {
    let mut delta = [0u64; 65];
    let mut total = 0u64;
    for (n, d) in delta.iter_mut().enumerate() {
        *d = now.at(n as u32).saturating_sub(last.at(n as u32));
        total += *d;
    }
    let mut out = [0u32; 9];
    if total == 0 {
        return out;
    }
    let mut cum = 0u64;
    let mut next = 0usize;
    for (n, d) in delta.iter().enumerate() {
        cum += d;
        while next < 9 && cum * 10 >= total * (next as u64 + 1) {
            out[next] = n as u32;
            next += 1;
        }
        if next == 9 {
            break;
        }
    }
    out
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("cycle", &self.cycle)
            .field("committed", &self.stats.committed)
            .field("window", &self.window_len())
            .field("done", &self.done)
            .finish()
    }
}

impl Machine {
    /// Builds a machine for `program` under `config`.
    ///
    /// # Panics
    ///
    /// Panics on a structurally invalid configuration; validate with
    /// [`SimConfig::validate`] first when the config comes from user
    /// input.
    pub fn new(program: &Program, config: SimConfig) -> Machine {
        if let Err(e) = config.validate() {
            panic!("invalid SimConfig: {e}");
        }
        let predictor = match config.predictor {
            PredictorChoice::Perfect => None,
            PredictorChoice::Real(p) => Some(Predictor::new(p)),
        };
        // `trace_limit` keeps its historic meaning: retain the first N
        // committed instructions in memory.
        let sink: Box<dyn TraceSink> = if config.trace_limit > 0 {
            Box::new(RingSink::keep_first(config.trace_limit))
        } else {
            Box::new(NullSink)
        };
        // The RUU plus the fetch queue, rounded up to whole words of the
        // ready set.
        let slots = (config.ruu_size + config.ifq_size)
            .next_power_of_two()
            .max(64);
        assert!(
            slots * EDGES_PER_SLOT < NO_EDGE as usize,
            "RUU too large for u32 edge indices"
        );
        Machine {
            frontend: Frontend::new(program),
            predictor,
            hierarchy: Hierarchy::new(config.hierarchy),
            ring: vec![Entry::vacant(); slots],
            ctrl: vec![CtrlSlot::vacant(); slots],
            ring_mask: slots - 1,
            iline_shift: config.hierarchy.l1i.block_bytes.trailing_zeros(),
            head_seq: 0,
            ifq_seq: 0,
            fetch_seq: 0,
            next_uid: 0,
            ready: ReadySet::new(slots),
            wheel: CompletionWheel::new(),
            completing: Vec::new(),
            edge_next: vec![NO_EDGE; slots * EDGES_PER_SLOT],
            lsq_len: 0,
            stores: VecDeque::with_capacity(config.lsq_size),
            groups: Vec::with_capacity(config.issue_width),
            rename: [None; 32],
            committed_tag_known: [true; 32],
            replay_confidence: vec![2; program.text.len()],
            committed_from_load: [false; 32],
            cycle: 0,
            fetch_resume: 0,
            fetch_stall: StallCause::Frontend,
            muldiv_busy_until: 0,
            last_commit_cycle: 0,
            done: false,
            out_bytes: Vec::new(),
            out_quads: Vec::new(),
            trace_on: sink.enabled(),
            sink,
            oracle: config.verify.then(|| OracleChecker::new(program)),
            pending_fault: None,
            stats: SimStats::default(),
            stall_pcs: None,
            interval: None,
            telemetry: None,
            phase: PhaseCounters::default(),
            oracle_span_ns: 0,
            oracle_span_checks: 0,
            config,
        }
    }

    /// Commits checked by the lockstep oracle so far (`None` when
    /// [`SimConfig::verify`] is off).
    pub fn oracle_checked(&self) -> Option<u64> {
        self.oracle.as_ref().map(OracleChecker::checked)
    }

    /// Arms one deterministic datapath fault: at the first commit
    /// at-or-after its index that retires a result or store value, a
    /// gated upper bit of that value is flipped. With
    /// [`SimConfig::verify`] on, the oracle must report the corruption
    /// as a [`SimError::Divergence`] — the fault-campaign contract.
    pub fn inject_datapath_fault(&mut self, fault: DatapathFault) {
        self.pending_fault = Some(fault);
    }

    /// Flips one bit of branch-predictor state (a direction counter
    /// chosen from `entropy`). Predictor state is micro-architectural:
    /// the run must still produce correct output, merely slower —
    /// graceful degradation. Returns false when nothing could be
    /// flipped (perfect prediction or a static predictor).
    pub fn inject_predictor_fault(&mut self, entropy: u64) -> bool {
        match self.predictor.as_mut() {
            Some(p) => p.flip_state_bit(entropy),
            None => false,
        }
    }

    /// Bytes emitted by committed `outb` instructions.
    pub fn out_bytes(&self) -> &[u8] {
        &self.out_bytes
    }

    /// Quadwords emitted by committed `outq` instructions.
    pub fn out_quads(&self) -> &[u64] {
        &self.out_quads
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The pipeline trace retained so far (empty unless
    /// `SimConfig::trace_limit` is set or a retaining sink is installed),
    /// decoded into [`TraceRecord`]s.
    pub fn trace(&self) -> Vec<TraceRecord> {
        self.trace_commits()
            .iter()
            .map(|r| TraceRecord {
                pc: r.pc,
                instr: nwo_isa::Instr::decode(r.raw).expect("trace records hold valid encodings"),
                fetched_at: r.fetched_at,
                dispatched_at: r.dispatched_at,
                issued_at: r.issued_at,
                completed_at: r.completed_at,
                committed_at: r.committed_at,
                packed: r.packed,
                replayed: r.replayed,
            })
            .collect()
    }

    /// The raw commit records retained by the trace sink.
    pub fn trace_commits(&self) -> Vec<CommitRecord> {
        self.sink.retained()
    }

    /// Replaces the trace sink (e.g. with a [`nwo_obs::JsonlSink`] for
    /// streaming, O(1)-memory tracing of arbitrarily long runs). The
    /// previous sink is flushed and returned.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) -> Box<dyn TraceSink> {
        self.trace_on = sink.enabled();
        let mut old = std::mem::replace(&mut self.sink, sink);
        old.flush();
        old
    }

    /// Flushes the trace sink (also done at the end of every `run`).
    pub fn flush_trace(&mut self) {
        self.sink.flush();
    }

    /// Memory hierarchy statistics.
    pub fn hierarchy_stats(&self) -> nwo_mem::HierarchyStats {
        self.hierarchy.stats()
    }

    /// Predictor statistics (absent under perfect prediction).
    pub fn predictor_stats(&self) -> Option<nwo_bpred::PredictorStats> {
        self.predictor.as_ref().map(|p| p.stats())
    }

    /// Turns on per-PC lost-commit-slot attribution (`--stall-detail`).
    /// Costs one hash-map update per under-width commit cycle; off by
    /// default.
    pub fn enable_stall_detail(&mut self) {
        self.stall_pcs.get_or_insert_with(Default::default);
    }

    /// The per-PC stall breakdowns collected so far (`None` unless
    /// [`Machine::enable_stall_detail`] was called before running).
    pub fn stall_detail(&self) -> Option<&std::collections::HashMap<u64, nwo_obs::StallBreakdown>> {
        self.stall_pcs.as_ref()
    }

    /// Streams a full metrics [`nwo_obs::Snapshot`] to `out` as one JSON
    /// line every `every` cycles of [`Machine::run`]. `every == 0`
    /// disables the stream.
    pub fn set_interval_stats(&mut self, every: u64, out: Box<dyn std::io::Write>) {
        self.interval = (every > 0).then(|| (every, nwo_obs::JsonlSink::new(out)));
    }

    /// Streams one compact telemetry sample to `out` as a JSON line
    /// every `every` cycles of [`Machine::run`]: cycle, interval IPC,
    /// per-cause stall deltas, interval power, and deciles of the
    /// committed operand-width distribution — each value a **delta
    /// over the interval** (the cumulative counterpart is
    /// [`Machine::set_interval_stats`]). `every == 0` disables the
    /// stream.
    pub fn set_telemetry(&mut self, every: u64, out: Box<dyn std::io::Write>) {
        self.telemetry = (every > 0).then(|| Telemetry {
            every,
            sink: nwo_obs::JsonlSink::new(out),
            samples: 0,
            last_cycle: 0,
            last_committed: 0,
            last_stall: nwo_obs::StallBreakdown::default(),
            last_width: crate::stats::WidthHistogram::new(),
            last_power: (0.0, 0.0),
        });
    }

    /// Emits one telemetry sample and rolls the delta baseline forward.
    fn emit_telemetry(&mut self) {
        let Some(mut t) = self.telemetry.take() else {
            return;
        };
        let line = self.telemetry_line(&mut t);
        t.sink.write_line(&line);
        t.samples += 1;
        self.telemetry = Some(t);
    }

    /// Builds the JSON line for one telemetry sample, updating the
    /// stream's last-sample baselines in the process.
    fn telemetry_line(&self, t: &mut Telemetry) -> String {
        use std::fmt::Write as _;
        let cycle = self.cycle;
        let committed = self.stats.committed;
        let dcycles = cycle.saturating_sub(t.last_cycle);
        let dcommit = committed.saturating_sub(t.last_committed);
        let ipc = if dcycles > 0 {
            dcommit as f64 / dcycles as f64
        } else {
            0.0
        };
        // The power accumulator exposes per-cycle averages; multiplying
        // back by the cycle count recovers the cumulative mW·cycle sums
        // this stream diffs between samples.
        let pr = self.stats.power.report(cycle.max(1));
        let base_sum = pr.baseline_mw_per_cycle * cycle as f64;
        let gated_sum = pr.gated_mw_per_cycle * cycle as f64;
        let denom = dcycles.max(1) as f64;
        let baseline_mw = (base_sum - t.last_power.0) / denom;
        let gated_mw = (gated_sum - t.last_power.1) / denom;

        let mut line = String::with_capacity(256);
        let _ = write!(
            line,
            "{{\"t\": \"telemetry\", \"cycle\": {cycle}, \"committed\": {committed}, \
             \"interval_cycles\": {dcycles}, \"interval_committed\": {dcommit}, \"ipc\": "
        );
        nwo_obs::json::write_f64(&mut line, ipc);
        line.push_str(", \"stall\": {");
        for (i, (cause, now)) in self.stats.stall.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            let delta = now.saturating_sub(t.last_stall.get(cause));
            let _ = write!(line, "\"{}\": {delta}", cause.name());
        }
        line.push_str("}, \"power_mw\": {\"baseline\": ");
        nwo_obs::json::write_f64(&mut line, baseline_mw);
        line.push_str(", \"gated\": ");
        nwo_obs::json::write_f64(&mut line, gated_mw);
        line.push_str("}, \"width_deciles\": [");
        let deciles = width_deciles(&self.stats.width_committed, &t.last_width);
        for (i, d) in deciles.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            let _ = write!(line, "{d}");
        }
        line.push_str("]}");

        t.last_cycle = cycle;
        t.last_committed = committed;
        t.last_stall = self.stats.stall.clone();
        t.last_width = self.stats.width_committed.clone();
        t.last_power = (base_sum, gated_sum);
        line
    }

    /// Serializes the machine's warmed state into a versioned checkpoint
    /// container: a `meta` identity section (warm-state config
    /// fingerprint + program code digest), the architected front-end
    /// state, the cache/TLB hierarchy, the branch predictor and the
    /// architected output streams.
    ///
    /// Checkpoints capture architectural plus warmed-table state only —
    /// the pipeline queues are not serialized — so they are meaningful
    /// at the warmup boundary (after [`Machine::warmup`], before
    /// [`Machine::run`]), which is the only place the simulator takes
    /// them.
    pub fn checkpoint(&self) -> Vec<u8> {
        let _prof = nwo_obs::span::span("ckpt-io");
        debug_assert!(
            self.cycle == 0 && self.head_seq == self.fetch_seq,
            "checkpoints are taken at the warmup boundary"
        );
        let mut cw = nwo_ckpt::CheckpointWriter::new();
        let mut meta = nwo_ckpt::SectionWriter::new();
        meta.put_u64(self.config.warm_fingerprint());
        meta.put_u64(self.frontend.code_digest());
        cw.add_section("meta", meta.into_bytes());
        cw.write_section("frontend", &self.frontend);
        cw.write_section("hierarchy", &self.hierarchy);
        let mut bp = nwo_ckpt::SectionWriter::new();
        bp.put_bool(self.predictor.is_some());
        if let Some(p) = &self.predictor {
            nwo_ckpt::Checkpointable::save(p, &mut bp);
        }
        cw.add_section("bpred", bp.into_bytes());
        let mut out = nwo_ckpt::SectionWriter::new();
        out.put_bytes(&self.out_bytes);
        out.put_u64(self.out_quads.len() as u64);
        for &q in &self.out_quads {
            out.put_u64(q);
        }
        cw.add_section("output", out.into_bytes());
        cw.into_bytes()
    }

    /// Restores warmed state saved by [`Machine::checkpoint`],
    /// replacing the warmup phase. The machine must have been built from
    /// the same program (code digest) and a config with the same
    /// [`SimConfig::warm_fingerprint`], and must not have begun timed
    /// simulation; any functional warmup already performed is simply
    /// overwritten (warm state is restored wholesale).
    ///
    /// Every section is fully decoded and validated before any machine
    /// state is touched, so a failed restore leaves the machine exactly
    /// as constructed — there is no partial restore.
    ///
    /// # Errors
    ///
    /// Any [`nwo_ckpt::CkptError`]: bad magic / foreign version / stale
    /// salt / truncation / CRC mismatch from the container layer, or
    /// [`nwo_ckpt::CkptError::Mismatch`] when the checkpoint belongs to
    /// a different program, machine shape, or already-run machine.
    pub fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), nwo_ckpt::CkptError> {
        use nwo_ckpt::CkptError;
        let _prof = nwo_obs::span::span("restore");
        if self.cycle != 0 || self.stats.committed != 0 {
            return Err(CkptError::Malformed(
                "restore requires a machine that has not begun timed simulation".into(),
            ));
        }
        let reader = nwo_ckpt::CheckpointReader::from_bytes(bytes)?;
        // Identity checks first: wrong program or wrong machine shape is
        // rejected before any payload decoding.
        let mut meta = reader.section("meta")?;
        let fp = meta.take_u64("meta warm fingerprint")?;
        let expected_fp = self.config.warm_fingerprint();
        if fp != expected_fp {
            return Err(CkptError::Mismatch {
                what: "warm-state config fingerprint",
                found: fp,
                expected: expected_fp,
            });
        }
        let digest = meta.take_u64("meta code digest")?;
        let expected_digest = self.frontend.code_digest();
        if digest != expected_digest {
            return Err(CkptError::Mismatch {
                what: "program code digest",
                found: digest,
                expected: expected_digest,
            });
        }
        meta.finish("meta")?;
        // Decode every section into scratch state; commit only when all
        // of them parsed cleanly.
        let mut frontend = self.frontend.clone();
        reader.restore_section("frontend", &mut frontend)?;
        let mut hierarchy = self.hierarchy.clone();
        reader.restore_section("hierarchy", &mut hierarchy)?;
        let mut bp = reader.section("bpred")?;
        let has_predictor = bp.take_bool("bpred presence")?;
        if has_predictor != self.predictor.is_some() {
            return Err(CkptError::Mismatch {
                what: "predictor presence",
                found: has_predictor as u64,
                expected: self.predictor.is_some() as u64,
            });
        }
        let mut predictor = self.predictor.clone();
        if let Some(p) = predictor.as_mut() {
            nwo_ckpt::Checkpointable::restore(p, &mut bp)?;
        }
        bp.finish("bpred")?;
        let mut out = reader.section("output")?;
        let out_bytes = out.take_bytes(u64::MAX, "output out_bytes")?;
        let quads = out.take_len(u64::MAX, "output out_quads count")?;
        let mut out_quads = Vec::new();
        for _ in 0..quads {
            out_quads.push(out.take_u64("output out_quad")?);
        }
        out.finish("output")?;
        self.frontend = frontend;
        self.hierarchy = hierarchy;
        self.predictor = predictor;
        self.out_bytes = out_bytes;
        self.out_quads = out_quads;
        // The restored frontend state was warmed by another machine the
        // oracle never saw executing: re-base it on the restored
        // architectural state so lockstep checking continues from here.
        if let Some(oracle) = self.oracle.as_mut() {
            let (regs, pc, halted, mem) = self.frontend.arch_state();
            oracle.resync(regs, pc, halted, mem);
        }
        self.phase.ckpt_restores += 1;
        Ok(())
    }

    /// Collects every counter in the machine — core pipeline, stall
    /// breakdown, caches and TLBs, branch predictor, power model — into
    /// one machine-readable [`nwo_obs::Snapshot`]. Usable mid-run (the
    /// interval-stats stream is built from it every N cycles).
    pub fn build_snapshot(&self) -> nwo_obs::Snapshot {
        let stats = &self.stats;
        let cycles = stats.cycles.max(self.cycle);
        let denom = cycles.max(1);
        let mut r = nwo_obs::Registry::new();
        r.group("sim", |r| {
            r.counter("cycles", cycles);
            r.counter("fetched", stats.fetched);
            r.counter("dispatched", stats.dispatched);
            r.counter("issued", stats.issued);
            r.counter("committed", stats.committed);
            r.counter("squashed", stats.squashed);
            r.gauge(
                "ipc",
                if cycles == 0 {
                    0.0
                } else {
                    stats.committed as f64 / cycles as f64
                },
            );
        });
        r.group("width", |r| {
            r.histogram("committed", stats.width_committed.to_log2());
            r.histogram("executed", stats.width_executed.to_log2());
        });
        r.source("stall", &stats.stall);
        r.group("branch", |r| {
            r.counter("committed", stats.branch.committed);
            r.counter("cond_committed", stats.branch.cond_committed);
            r.counter("mispredicts", stats.branch.mispredicts);
            r.gauge("accuracy", stats.branch.accuracy());
        });
        r.group("pack", |r| {
            r.counter("groups", stats.pack.groups);
            r.counter("packed_ops", stats.pack.packed_ops);
            r.counter("slots_saved", stats.pack.slots_saved);
            r.counter("replay_issued", stats.pack.replay_issued);
            r.counter("replay_squashed", stats.pack.replay_squashed);
        });
        r.source("mem", &self.hierarchy_stats());
        if let Some(ps) = self.predictor_stats() {
            r.source("bpred", &ps);
        }
        r.source("power", &stats.power.report(denom));
        r.source("mem_ext", &stats.mem_ext.report(denom));
        // Machine-local phase counters only — never global profiler
        // state, which other threads may be mutating — so identical
        // runs keep producing byte-identical snapshots.
        r.group("prof", |r| {
            r.counter("warmup_calls", self.phase.warmup_calls);
            r.counter("warmup_insts", self.phase.warmup_insts);
            r.counter("run_calls", self.phase.run_calls);
            r.counter("ckpt_restores", self.phase.ckpt_restores);
            r.counter(
                "oracle_checks",
                self.oracle.as_ref().map_or(0, OracleChecker::checked),
            );
        });
        r.group("telemetry", |r| {
            r.counter("every", self.telemetry.as_ref().map_or(0, |t| t.every));
            r.counter("samples", self.telemetry.as_ref().map_or(0, |t| t.samples));
            r.counter(
                "interval_every",
                self.interval.as_ref().map_or(0, |(e, _)| *e),
            );
        });
        r.finish()
    }

    /// Fast-forwards `insts` instructions functionally, warming caches
    /// and the branch predictor but not simulating timing — the paper's
    /// warmup methodology (Section 3.2).
    ///
    /// # Errors
    ///
    /// [`SimError::BadFetch`] if the program runs off the rails;
    /// warming past `halt` simply stops early.
    pub fn warmup(&mut self, insts: u64) -> Result<u64, SimError> {
        let _prof = nwo_obs::span::span("warmup");
        let mut oracle_ns = 0u64;
        let mut oracle_checks = 0u64;
        self.phase.warmup_calls += 1;
        let mut n = 0;
        let mut rec = blank_record();
        while n < insts && !self.frontend.halted() {
            let pc = self.frontend.pc();
            let Some(si) = self.frontend.step_into(&mut rec) else {
                if self.frontend.halted() {
                    break;
                }
                return Err(SimError::BadFetch { pc });
            };
            self.hierarchy.warm_inst(rec.pc);
            if let Some(addr) = rec.mem_addr {
                self.hierarchy.warm_data(addr, rec.store_value.is_some());
            }
            if let (Some(info), Some(p)) = (&si.ctrl, &mut self.predictor) {
                p.update(rec.pc, info, rec.taken, rec.next_pc, None);
            }
            // Warmed-over instructions are architecturally executed, so
            // their output side effects are real — collecting them here
            // is what makes a restored-from-checkpoint run's output
            // byte-identical to an uninterrupted warmup-then-run.
            match rec.instr.op {
                Opcode::Outb => self.out_bytes.push(rec.op_a as u8),
                Opcode::Outq => self.out_quads.push(rec.op_a),
                _ => {}
            }
            // Warmed instructions are architecturally executed, so the
            // oracle advances (and checks) through them too; cycle
            // fields are zero — warmup has no timing.
            if let Some(oracle) = self.oracle.as_mut() {
                let seq = oracle.checked();
                let record = CommitRecord {
                    seq,
                    pc: rec.pc,
                    raw: si.raw,
                    ..CommitRecord::default()
                };
                let t0 = nwo_obs::span::enabled().then(std::time::Instant::now);
                let checked = oracle.check_commit(0, &rec, record);
                if let Some(t0) = t0 {
                    oracle_ns += t0.elapsed().as_nanos() as u64;
                    oracle_checks += 1;
                }
                if let Err(report) = checked {
                    return Err(SimError::Divergence(report));
                }
            }
            n += 1;
        }
        self.phase.warmup_insts += n;
        nwo_obs::span::add("insts", n);
        nwo_obs::span::record_external("oracle-step", oracle_ns, oracle_checks);
        Ok(n)
    }

    /// Runs the pipeline until the program halts, `max_insts` commit, or
    /// an error occurs.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(&mut self, max_insts: u64) -> Result<(), SimError> {
        let _prof = nwo_obs::span::span("measured-run");
        let start_cycle = self.cycle;
        self.phase.run_calls += 1;
        self.oracle_span_ns = 0;
        self.oracle_span_checks = 0;
        while !self.done && self.stats.committed < max_insts {
            if self.frontend.halted() && self.head_seq == self.fetch_seq {
                // Warmup (or a restored checkpoint of one) consumed the
                // whole program including `halt`: nothing left to time.
                self.done = true;
                break;
            }
            if self.cycle >= self.config.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: self.config.max_cycles,
                });
            }
            self.cycle += 1;
            self.commit()?;
            self.writeback();
            self.issue();
            self.dispatch();
            self.fetch()?;
            if let Some(every) = self.interval.as_ref().map(|(e, _)| *e) {
                if self.cycle.is_multiple_of(every) {
                    let line = self.build_snapshot().to_json_line();
                    if let Some((_, sink)) = &mut self.interval {
                        sink.write_line(&line);
                    }
                }
            }
            if let Some(every) = self.telemetry.as_ref().map(|t| t.every) {
                if self.cycle.is_multiple_of(every) {
                    self.emit_telemetry();
                }
            }
            if self.cycle - self.last_commit_cycle > 200_000 {
                return Err(self.deadlock_error());
            }
        }
        self.stats.cycles = self.cycle;
        self.sink.flush();
        if let Some((_, sink)) = &mut self.interval {
            TraceSink::flush(sink);
        }
        if self.telemetry.is_some() {
            // Final partial-interval sample, so the stream always ends
            // at the last cycle; then flush.
            if self
                .telemetry
                .as_ref()
                .is_some_and(|t| t.last_cycle < self.cycle)
            {
                self.emit_telemetry();
            }
            if let Some(t) = &mut self.telemetry {
                TraceSink::flush(&mut t.sink);
            }
        }
        nwo_obs::span::add("cycles", self.cycle - start_cycle);
        nwo_obs::span::record_external("oracle-step", self.oracle_span_ns, self.oracle_span_checks);
        Ok(())
    }

    /// Builds the [`SimError::Deadlock`] diagnostic: last-commit cycle,
    /// the stall attribution so far, the window-head instruction, and a
    /// pipeview of the most recent retained commits.
    fn deadlock_error(&self) -> SimError {
        let head = self.window_front().map(|e| {
            format!(
                "seq {} pc {:#x} {} (issued={}, completed={}, unresolved deps={})",
                e.seq, e.rec.pc, e.rec.instr, e.issued, e.completed, e.idep_remaining
            )
        });
        let records = self.sink.retained();
        let start = records.len().saturating_sub(8);
        let disasm = |_pc: u64, raw: u32| match nwo_isa::Instr::decode(raw) {
            Ok(i) => i.to_string(),
            Err(_) => format!("{raw:08x}"),
        };
        SimError::Deadlock {
            cycle: self.cycle,
            snapshot: Box::new(DeadlockSnapshot {
                last_commit_cycle: self.last_commit_cycle,
                stall: self.stats.stall.clone(),
                head,
                pipeview: nwo_obs::pipeview::render(&records[start..], &disasm),
            }),
        }
    }

    // ----------------------------------------------------------------
    // Fetch
    // ----------------------------------------------------------------

    fn fetch(&mut self) -> Result<(), SimError> {
        if self.done || self.cycle < self.fetch_resume {
            return Ok(());
        }
        if self.frontend.halted() || self.frontend.stalled() {
            return Ok(());
        }
        let pc0 = self.frontend.pc();
        // I-cache access for the first line of the group; a miss stalls
        // fetch for the full latency.
        let latency = self.hierarchy.inst_access(pc0);
        if latency > self.config.hierarchy.l1i.hit_latency {
            self.fetch_resume = self.cycle + latency;
            self.fetch_stall = StallCause::IcacheMiss;
            return Ok(());
        }
        // Table 1 specifies a flat 4-instructions/cycle fetch width; a
        // group may cross a cache-line boundary as long as the next line
        // also hits (a miss ends the group and stalls).
        let mut line = pc0 >> self.iline_shift;
        let mut fetched = 0;
        while fetched < self.config.fetch_width && self.ifq_len() < self.config.ifq_size {
            let pc = self.frontend.pc();
            if self.frontend.halted() || self.frontend.stalled() {
                break;
            }
            let pc_line = pc >> self.iline_shift;
            if pc_line != line {
                let latency = self.hierarchy.inst_access(pc);
                if latency > self.config.hierarchy.l1i.hit_latency {
                    self.fetch_resume = self.cycle + latency;
                    self.fetch_stall = StallCause::IcacheMiss;
                    break;
                }
                line = pc_line;
            }
            let was_spec = self.frontend.spec_mode();
            let seq = self.fetch_seq;
            let slot = self.slot(seq);
            // Execute straight into the slot's record.
            let e = &mut self.ring[slot];
            let Some(si) = self.frontend.step_into(&mut e.rec) else {
                if self.frontend.stalled() || self.frontend.halted() {
                    break;
                }
                // Correct-path bad fetch: a program error.
                return Err(SimError::BadFetch { pc });
            };
            let ctrl = si.ctrl;
            e.refill(seq, self.next_uid, si.class, was_spec, self.cycle);
            let (next_pc, halt) = (e.rec.next_pc, e.rec.instr.op == Opcode::Halt);
            let mut pred_npc = pc.wrapping_add(4);
            if let Some(info) = ctrl {
                let mut ras_cp = None;
                let mut dir_lookup = None;
                pred_npc = match &mut self.predictor {
                    None => next_pc, // perfect prediction
                    Some(p) => {
                        let prediction = p.predict(pc, &info);
                        ras_cp = Some(p.ras_checkpoint());
                        dir_lookup = prediction.lookup;
                        if prediction.taken {
                            prediction.target.unwrap_or(pc.wrapping_add(4))
                        } else {
                            pc.wrapping_add(4)
                        }
                    }
                };
                self.ctrl[slot] = CtrlSlot {
                    info,
                    ras_cp,
                    dir_lookup,
                };
            }
            let mispredicted = ctrl.is_some() && pred_npc != next_pc;
            let e = &mut self.ring[slot];
            e.is_ctrl = ctrl.is_some();
            e.mispredicted = mispredicted;
            if self.trace_on {
                let rec = &e.rec;
                let ev = TraceEvent::Fetch {
                    cycle: self.cycle,
                    pc: rec.pc,
                    raw: self.frontend.static_at(rec.pc).raw,
                    spec: was_spec,
                };
                self.sink.emit(&ev);
            }
            self.fetch_seq += 1;
            self.next_uid += 1;
            self.stats.fetched += 1;
            fetched += 1;
            if mispredicted {
                if !was_spec {
                    self.frontend.enter_spec();
                }
                self.frontend.set_pc(pred_npc);
            }
            if ctrl.is_some() && pred_npc != pc.wrapping_add(4) {
                break; // a (predicted-)taken transfer ends the fetch group
            }
            if halt {
                break;
            }
        }
        Ok(())
    }

    // ----------------------------------------------------------------
    // Dispatch
    // ----------------------------------------------------------------

    fn dispatch(&mut self) {
        let mut dispatched = 0;
        while dispatched < self.config.decode_width {
            if self.window_len() >= self.config.ruu_size || self.ifq_len() == 0 {
                break;
            }
            let is_mem = self.ring[self.slot(self.ifq_seq)].rec.mem_addr.is_some();
            if is_mem && self.lsq_len >= self.config.lsq_size {
                break;
            }
            self.dispatch_one();
            dispatched += 1;
        }
    }

    /// Resolves source register `reg` (never the zero register) at
    /// dispatch: whether its width tag is known, whether a load produced
    /// it, and its in-flight producer, if any.
    fn source(&self, reg: Option<Reg>) -> (bool, bool, Option<u64>) {
        let Some(r) = reg else {
            return (true, false, None);
        };
        let i = r.index() as usize;
        match self.rename[i] {
            Some(pseq) => {
                let p = &self.ring[self.slot(pseq)];
                debug_assert!(
                    p.seq == pseq && pseq >= self.head_seq,
                    "rename points into window"
                );
                (
                    p.result_tag_known,
                    p.is_load(),
                    (!p.completed).then_some(pseq),
                )
            }
            None => (
                self.committed_tag_known[i],
                self.committed_from_load[i],
                None,
            ),
        }
    }

    /// Moves the fetch-queue head into the RUU: renames its sources,
    /// links it into its producers' consumer lists and computes its
    /// operand width tags.
    fn dispatch_one(&mut self) {
        let seq = self.ifq_seq;
        self.ifq_seq += 1;
        let slot = self.slot(seq);

        // Resolve source operands: timing dependencies plus width-tag and
        // load-provenance metadata.
        let [src_a, src_b, extra] = self.frontend.static_at(self.ring[slot].rec.pc).srcs;
        let (a_known, a_from_load, a_producer) = self.source(src_a);
        let (b_known, b_from_load, b_producer) = self.source(src_b);
        let (_, _, extra_producer) = self.source(extra); // store data: timing only
        let mut idep = 0u8;
        for pseq in [a_producer, b_producer, extra_producer]
            .into_iter()
            .flatten()
        {
            let node = slot * EDGES_PER_SLOT + idep as usize;
            let producer = self.slot(pseq);
            self.edge_next[node] = self.ring[producer].consumers;
            self.ring[producer].consumers = node as u32;
            idep += 1;
        }

        let cycle = self.cycle;
        let zero_detect_loads = self.config.zero_detect_loads;
        let e = &mut self.ring[slot];
        e.idep_remaining = idep;
        e.tag_a = if a_known {
            WidthTag::of(e.rec.op_a)
        } else {
            WidthTag::unknown()
        };
        e.tag_b = if b_known {
            WidthTag::of(e.rec.op_b)
        } else {
            WidthTag::unknown()
        };
        e.from_load = a_from_load || b_from_load;
        e.dispatched_at = cycle;
        e.earliest_issue = cycle + 1;
        // For stores, src_a is the base register: remember its producer
        // so loads can tell when this store's address is computable.
        if e.is_store() {
            e.store_base_producer = a_producer.unwrap_or(NO_SEQ);
        }
        e.result_tag_known = e.class != OpClass::Load || zero_detect_loads;
        let (dest, is_mem, is_store, pc) =
            (e.dest(), e.rec.mem_addr.is_some(), e.is_store(), e.rec.pc);

        if idep == 0 {
            self.ready.insert(slot);
        }
        if let Some(dest) = dest {
            self.rename[dest.index() as usize] = Some(seq);
        }
        if is_mem {
            self.lsq_len += 1;
            if is_store {
                self.stores.push_back(seq);
            }
        }
        self.stats.dispatched += 1;
        if self.trace_on {
            let ev = TraceEvent::Dispatch {
                cycle: self.cycle,
                pc,
            };
            self.sink.emit(&ev);
        }
    }

    // ----------------------------------------------------------------
    // Issue
    // ----------------------------------------------------------------

    /// Selects this cycle's instructions: the ready set in age order,
    /// oldest first, under the issue-width, ALU and mul/div limits, with
    /// narrow operations packed into shared ALUs.
    fn issue(&mut self) {
        let pack_config = self.config.pack_config();
        let degree = pack_config.map(|p| p.degree).unwrap_or(1);
        let gating = self.config.gating_config();
        let power_gating = matches!(
            self.config.optimization,
            Optimization::ClockGating(_) | Optimization::None
        );

        let mut slots = 0usize;
        let mut alus = 0usize;
        let mut muldiv_issued = 0usize;
        // Groups still below the packing degree.
        let mut open_groups = 0usize;
        let mut groups = std::mem::take(&mut self.groups);
        groups.clear();

        let head = self.slot(self.head_seq);
        let len = self.window_len();
        let mut from = 0;
        while let Some(age) = self.ready.next(head, from, len) {
            from = age + 1;
            // Stop when neither a fresh slot nor any open group remains.
            if slots >= self.config.issue_width && open_groups == 0 {
                break;
            }
            let idx = (head + age) & self.ring_mask;
            let e = &self.ring[idx];
            if e.earliest_issue > self.cycle || e.dispatched_at >= self.cycle {
                continue;
            }
            let op = e.rec.instr.op;
            let class = e.class;

            // Multiply/divide unit.
            if matches!(class, OpClass::Mult | OpClass::Div) {
                if slots >= self.config.issue_width
                    || muldiv_issued >= self.config.int_muldiv
                    || self.cycle < self.muldiv_busy_until
                {
                    continue;
                }
                slots += 1;
                muldiv_issued += 1;
                let latency = if class == OpClass::Div {
                    self.muldiv_busy_until = self.cycle + self.config.div_latency;
                    self.config.div_latency
                } else {
                    self.config.mult_latency
                };
                self.issue_entry(idx, self.cycle + latency, gating, power_gating);
                continue;
            }

            // Loads: memory-ordering checks against the LSQ.
            if class == OpClass::Load {
                if slots >= self.config.issue_width || alus >= self.config.int_alus {
                    continue;
                }
                let complete_at = match self.load_action(idx) {
                    LoadAction::Wait => continue,
                    LoadAction::Forward => self.cycle + self.config.alu_latency + 1,
                    LoadAction::Access => {
                        let addr = self.ring[idx].rec.mem_addr.expect("load has address");
                        let lat = self.hierarchy.data_access(addr, false);
                        self.ring[idx].dmiss = lat > self.config.hierarchy.l1d.hit_latency;
                        self.cycle + self.config.alu_latency + lat
                    }
                };
                slots += 1;
                alus += 1;
                self.issue_entry(idx, complete_at, gating, power_gating);
                continue;
            }

            // Everything else executes on an ALU with unit latency:
            // arithmetic, logic, shifts, stores (EA), branches, jumps,
            // system ops.
            let complete_at = self.cycle + self.config.alu_latency;

            // Operation packing (Section 5.2/5.3).
            if let Some(pc_cfg) = pack_config {
                let e = &self.ring[idx];
                let exact = !e.replay_attempted && can_pack(op, e.tag_a, e.tag_b, &pc_cfg);
                let confident =
                    !pc_cfg.replay_confidence || self.replay_confidence[replay_slot(e.rec.pc)] >= 2;
                let replay = if !exact && pc_cfg.replay && !e.replay_attempted && confident {
                    replay_candidate(op, e.tag_a, e.tag_b)
                } else {
                    None
                };
                if exact || replay.is_some() {
                    // Try to join an open group of the same opcode.
                    if let Some(g) = groups.iter_mut().find(|g| {
                        g.opcode == op
                            && g.members < pc_cfg.degree
                            && (replay.is_none() || !g.has_replay)
                    }) {
                        debug_assert!(g.members >= 1);
                        g.members += 1;
                        if g.members == pc_cfg.degree {
                            open_groups -= 1;
                        }
                        self.ring[idx].in_group = true;
                        if let Some(wide) = replay {
                            g.has_replay = true;
                            self.ring[idx].replay_wide = Some(wide);
                            self.stats.pack.replay_issued += 1;
                        }
                        self.issue_entry(idx, complete_at, gating, power_gating);
                        continue;
                    }
                    // Any candidate may open a new group (it pays for the
                    // slot and ALU like a normal op, so leading is free);
                    // a replay-mode leader occupies the group's single
                    // wide-operand bypass path. A replay leader whose
                    // group stays a singleton is un-speculated at the
                    // tally below: alone, its lane spans the whole adder
                    // and there is nothing to speculate on.
                    if slots < self.config.issue_width && alus < self.config.int_alus {
                        slots += 1;
                        alus += 1;
                        groups.push(OpenGroup {
                            opcode: op,
                            members: 1,
                            has_replay: replay.is_some(),
                            leader: idx,
                        });
                        if 1 < degree {
                            open_groups += 1;
                        }
                        if let Some(wide) = replay {
                            self.ring[idx].replay_wide = Some(wide);
                            self.stats.pack.replay_issued += 1;
                        }
                        self.issue_entry(idx, complete_at, gating, power_gating);
                        continue;
                    }
                }
            }

            if slots >= self.config.issue_width || alus >= self.config.int_alus {
                continue;
            }
            slots += 1;
            alus += 1;
            self.issue_entry(idx, complete_at, gating, power_gating);
        }

        // Occupancy accounting.
        if self.stats.occupancy.issue_slots.len() != self.config.issue_width + 1 {
            self.stats.occupancy.issue_slots = vec![0; self.config.issue_width + 1];
        }
        self.stats.occupancy.issue_slots[slots.min(self.config.issue_width)] += 1;
        if slots >= self.config.issue_width {
            self.stats.occupancy.issue_saturated += 1;
        }
        self.stats.occupancy.alu_sum += alus as u64;
        self.stats.occupancy.ruu_sum += len as u64;

        for g in &groups {
            let leader = &mut self.ring[g.leader];
            if g.members >= 2 {
                self.stats.pack.groups += 1;
                self.stats.pack.packed_ops += g.members as u64;
                self.stats.pack.slots_saved += (g.members - 1) as u64;
                leader.in_group = true;
                if self.trace_on {
                    let ev = TraceEvent::Pack {
                        cycle: self.cycle,
                        leader_pc: leader.rec.pc,
                        members: g.members.min(u8::MAX as usize) as u8,
                        replay: g.has_replay,
                    };
                    self.sink.emit(&ev);
                }
            } else if leader.replay_wide.is_some() {
                // A replay candidate that attracted no partner issues
                // full-width: the lone lane spans the whole adder, so
                // there is nothing to speculate on.
                leader.replay_wide = None;
                self.stats.pack.replay_issued -= 1;
            }
        }
        self.groups = groups;
    }

    /// Marks the entry in ring slot `idx` issued, schedules its
    /// writeback and records execution statistics.
    fn issue_entry(
        &mut self,
        idx: usize,
        complete_at: u64,
        gating: nwo_core::GatingConfig,
        power_gating: bool,
    ) {
        let cycle = self.cycle;
        let e = &mut self.ring[idx];
        e.issued = true;
        e.issued_at = cycle;
        e.complete_at = complete_at;
        self.ready.remove(idx);
        self.wheel.schedule(
            cycle,
            Completion {
                due: complete_at,
                seq: e.seq,
                uid: e.uid,
            },
        );
        self.stats.issued += 1;

        // Power accounting: what would the gating hardware do for this
        // operation? (Timing-neutral, so we account on every run where
        // packing is off; packing runs gate nothing.) The mW sums are
        // `f64`, so the order of these calls — issue order — is part of
        // the result.
        let level = if power_gating {
            gate_level(e.tag_a, e.tag_b, &gating)
        } else {
            GateLevel::Full
        };
        self.stats.power.record_op(e.class, level);
        if level != GateLevel::Full {
            self.stats.gated_ops += 1;
            if e.from_load {
                self.stats.gated_ops_with_load_operand += 1;
            }
        }

        if !e.exec_stats_counted {
            e.exec_stats_counted = true;
            let w = pair_width(e.rec.op_a, e.rec.op_b);
            e.width = w as u8;
            self.stats.breakdown.record_width(e.class, w);
            if has_two_operands(e.class) {
                self.stats.width_executed.record_width(w);
                self.stats.fluctuation.record_width(e.rec.pc, w);
            }
        }
        if self.trace_on {
            let e = &self.ring[idx];
            let ev = TraceEvent::Issue {
                cycle,
                pc: e.rec.pc,
                packed: e.in_group,
                replay: e.replay_wide.is_some(),
            };
            self.sink.emit(&ev);
        }
    }

    /// Decides whether the load in ring slot `idx` may proceed, checking
    /// it against every older store in the LSQ.
    fn load_action(&self, idx: usize) -> LoadAction {
        let load = &self.ring[idx];
        let load_addr = load.rec.mem_addr.expect("load has an address");
        let load_len = access_bytes(load.rec.instr.op);
        let mut action = LoadAction::Access;
        for &seq in &self.stores {
            if seq >= load.seq {
                break;
            }
            let e = &self.ring[self.slot(seq)];
            // A producer older than the window head has committed.
            let pseq = e.store_base_producer;
            let addr_known =
                pseq == NO_SEQ || pseq < self.head_seq || self.ring[self.slot(pseq)].completed;
            if !addr_known {
                // Unknown store address: conservatively wait.
                return LoadAction::Wait;
            }
            let st_addr = e.rec.mem_addr.expect("store has an address");
            let st_len = access_bytes(e.rec.instr.op);
            let overlap = st_addr < load_addr.wrapping_add(load_len)
                && load_addr < st_addr.wrapping_add(st_len);
            if !overlap {
                continue;
            }
            let covers = st_addr <= load_addr
                && st_addr.wrapping_add(st_len) >= load_addr.wrapping_add(load_len);
            if covers && e.completed {
                action = LoadAction::Forward; // youngest older match wins
            } else {
                return LoadAction::Wait;
            }
        }
        action
    }

    // ----------------------------------------------------------------
    // Writeback
    // ----------------------------------------------------------------

    /// Is `c` the pending completion of an instruction still in the RUU?
    /// A squash rewinds `ifq_seq` below the squashed seqs, and refetching
    /// a reused seq gives its slot a new uid.
    fn live(&self, c: &Completion) -> bool {
        c.seq < self.ifq_seq && self.ring[self.slot(c.seq)].uid == c.uid
    }

    fn writeback(&mut self) {
        // This cycle's completions, walked in age order; recoveries can
        // invalidate younger seqs mid-walk.
        let mut completing = std::mem::take(&mut self.completing);
        completing.clear();
        self.wheel.drain_due(self.cycle, &mut completing);
        completing.sort_unstable_by_key(|c| c.seq);

        for c in &completing {
            if !self.live(c) {
                continue; // squashed, possibly by an earlier recovery this cycle
            }
            let idx = self.slot(c.seq);
            let e = &mut self.ring[idx];
            debug_assert!(e.issued && !e.completed && e.complete_at == c.due);

            // Replay-packing squash: the carry rippled past bit 15, so
            // this op re-issues full-width after the replay penalty
            // (Section 5.3's "replay traps").
            if let Some(wide) = e.replay_wide {
                let (op, a, b, pc) = (e.rec.instr.op, e.rec.op_a, e.rec.op_b, e.rec.pc);
                e.replay_wide = None;
                e.replay_attempted = true;
                let mispredicted = replay_mispredicts(op, a, b, wide);
                let conf = &mut self.replay_confidence[replay_slot(pc)];
                if mispredicted {
                    *conf = 0;
                } else {
                    *conf = (*conf + 1).min(3);
                }
                if mispredicted {
                    let penalty = self
                        .config
                        .pack_config()
                        .map(|p| p.replay_penalty)
                        .unwrap_or(0)
                        .max(1);
                    let e = &mut self.ring[idx];
                    e.issued = false;
                    e.complete_at = u64::MAX;
                    e.earliest_issue = self.cycle + penalty;
                    self.ready.insert(idx);
                    self.stats.pack.replay_squashed += 1;
                    if self.trace_on {
                        let ev = TraceEvent::ReplaySquash {
                            cycle: self.cycle,
                            pc,
                            penalty,
                        };
                        self.sink.emit(&ev);
                    }
                    continue;
                }
            }

            let e = &mut self.ring[idx];
            e.completed = true;
            let mut node = std::mem::replace(&mut e.consumers, NO_EDGE);
            if self.trace_on {
                let ev = TraceEvent::Writeback {
                    cycle: self.cycle,
                    pc: self.ring[idx].rec.pc,
                };
                self.sink.emit(&ev);
            }
            // Wake consumers.
            while node != NO_EDGE {
                let consumer = node as usize / EDGES_PER_SLOT;
                let d = &mut self.ring[consumer];
                debug_assert!(d.idep_remaining > 0, "dependency count underflow");
                d.idep_remaining -= 1;
                if d.idep_remaining == 0 {
                    self.ready.insert(consumer);
                }
                node = self.edge_next[node as usize];
            }
            // Branch resolution and misprediction recovery.
            let e = &self.ring[idx];
            if e.mispredicted {
                let bseq = e.seq;
                let spec = e.spec;
                let pc = e.rec.pc;
                let target = e.rec.next_pc;
                let taken = e.rec.taken;
                let CtrlSlot {
                    ras_cp, dir_lookup, ..
                } = self.ctrl[idx];
                if !spec {
                    self.stats.branch.mispredicts += 1;
                }
                if self.trace_on {
                    let ev = TraceEvent::BranchMispredict {
                        cycle: self.cycle,
                        pc,
                        target,
                    };
                    self.sink.emit(&ev);
                }
                if let (Some(p), Some(lu)) = (&mut self.predictor, &dir_lookup) {
                    // Restore the speculative history to this branch's
                    // snapshot and shift in the actual outcome; younger
                    // (squashed) shifts vanish with it.
                    p.repair(lu, taken);
                }
                self.recover(bseq, spec, target, ras_cp);
            }
        }
        self.completing = completing;
    }

    /// Squashes everything younger than `bseq` and redirects fetch.
    fn recover(&mut self, bseq: u64, spec: bool, target: u64, ras_cp: Option<RasCheckpoint>) {
        // Drop younger RUU entries. Their pending completions go stale
        // (see `live`); their ready bits and LSQ places are released.
        for seq in bseq + 1..self.ifq_seq {
            let slot = self.slot(seq);
            self.ready.remove(slot);
            if self.ring[slot].rec.mem_addr.is_some() {
                self.lsq_len -= 1;
            }
            self.stats.squashed += 1;
        }
        while self.stores.back().is_some_and(|&s| s > bseq) {
            self.stores.pop_back();
        }
        self.stats.squashed += self.ifq_len() as u64;
        self.ifq_seq = bseq + 1;
        self.fetch_seq = bseq + 1;
        // Rebuild the rename table and unlink squashed consumers: each
        // producer's list is youngest first, so they are its prefix.
        self.rename = [None; 32];
        for seq in self.head_seq..=bseq {
            let slot = self.slot(seq);
            let mut node = self.ring[slot].consumers;
            while node != NO_EDGE && self.ring[node as usize / EDGES_PER_SLOT].seq > bseq {
                node = self.edge_next[node as usize];
            }
            self.ring[slot].consumers = node;
            if let Some(dest) = self.ring[slot].dest() {
                self.rename[dest.index() as usize] = Some(seq);
            }
        }
        // Redirect the front end.
        if spec {
            // A wrong-path branch resolved: follow its (wrong-path)
            // computed target, still speculative.
            self.frontend.set_pc(target);
        } else {
            self.frontend.recover(target);
        }
        if let (Some(p), Some(cp)) = (&mut self.predictor, ras_cp) {
            p.ras_restore(cp);
        }
        self.fetch_resume = self
            .fetch_resume
            .max(self.cycle + 1 + self.config.mispredict_penalty);
        self.fetch_stall = StallCause::MispredictRecovery;
    }

    // ----------------------------------------------------------------
    // Commit
    // ----------------------------------------------------------------

    fn commit(&mut self) -> Result<(), SimError> {
        let mut retired = 0u64;
        for _ in 0..self.config.commit_width {
            if self.window_len() == 0 {
                break;
            }
            let slot = self.slot(self.head_seq);
            if !self.ring[slot].completed {
                break;
            }
            self.head_seq += 1;
            let e = &mut self.ring[slot];
            debug_assert!(!e.spec, "wrong-path instruction reached commit");
            if e.rec.mem_addr.is_some() {
                self.lsq_len -= 1;
                if e.is_store() {
                    let store = self.stores.pop_front();
                    debug_assert_eq!(store, Some(e.seq), "stores leave the LSQ in order");
                }
            }
            // An armed datapath fault fires at the first eligible
            // commit, corrupting a gated upper bit of the value being
            // architecturally retired — exactly the silent-corruption
            // scenario the oracle exists to catch.
            if let Some(fault) = self.pending_fault {
                if self.stats.committed >= fault.commit_index {
                    let fired = if let Some(v) = e.rec.result {
                        e.rec.result = Some(fault.apply(v));
                        true
                    } else if let Some(v) = e.rec.store_value {
                        e.rec.store_value = Some(fault.apply(v));
                        true
                    } else {
                        false
                    };
                    if fired {
                        self.pending_fault = None;
                    }
                }
            }
            // Stores write the data cache at commit.
            if e.is_store() {
                let addr = e.rec.mem_addr.expect("store has an address");
                self.hierarchy.data_access(addr, true);
                // Section 6 extension: a known-narrow store value gates
                // the data-array write and the bus transfer.
                let value = e.rec.store_value.expect("store has data");
                self.stats
                    .mem_ext
                    .record_store(access_bytes(e.rec.instr.op), nwo_core::is_narrow(value, 16));
            }
            if e.is_load() {
                // Loads can gate only the result-bus transfer, and only
                // when the fill path performs zero-detect.
                let value = e.rec.result.expect("load has a result");
                let narrow = self.config.zero_detect_loads && nwo_core::is_narrow(value, 16);
                self.stats
                    .mem_ext
                    .record_load(access_bytes(e.rec.instr.op), narrow);
            }
            // Output side effects are architectural: commit time.
            match e.rec.instr.op {
                Opcode::Outb => self.out_bytes.push(e.rec.op_a as u8),
                Opcode::Outq => self.out_quads.push(e.rec.op_a),
                _ => {}
            }
            // Architected per-register metadata.
            if let Some(dest) = e.dest() {
                let r = dest.index() as usize;
                self.committed_tag_known[r] = e.result_tag_known;
                self.committed_from_load[r] = e.is_load();
                if self.rename[r] == Some(e.seq) {
                    self.rename[r] = None;
                }
            }
            // Train the predictor with architected outcomes.
            if e.is_ctrl {
                let c = &self.ctrl[slot];
                self.stats.branch.committed += 1;
                if c.info.is_cond {
                    self.stats.branch.cond_committed += 1;
                }
                if let Some(p) = &mut self.predictor {
                    p.update(
                        e.rec.pc,
                        &c.info,
                        e.rec.taken,
                        e.rec.next_pc,
                        c.dir_lookup.as_ref(),
                    );
                }
            }
            if self.trace_on || self.oracle.is_some() {
                let record = CommitRecord {
                    seq: self.stats.committed,
                    pc: e.rec.pc,
                    raw: self.frontend.static_at(e.rec.pc).raw,
                    fetched_at: e.fetched_at,
                    dispatched_at: e.dispatched_at,
                    issued_at: e.issued_at,
                    completed_at: e.complete_at,
                    committed_at: self.cycle,
                    packed: e.in_group,
                    replayed: e.replay_attempted,
                };
                if self.trace_on {
                    self.sink.emit(&TraceEvent::Commit(record));
                }
                // Lockstep check: the reference emulator executes the
                // same instruction; any architectural disagreement
                // aborts the run with a typed report instead of letting
                // wrong statistics accumulate.
                let cycle = self.cycle;
                if let Some(oracle) = self.oracle.as_mut() {
                    // Per-commit timing is batched into the run-level
                    // accumulators (see `oracle_span_ns`) — one clock
                    // pair per commit, no per-commit span guards.
                    let t0 = nwo_obs::span::enabled().then(std::time::Instant::now);
                    let checked = oracle.check_commit(cycle, &e.rec, record);
                    if let Some(t0) = t0 {
                        self.oracle_span_ns += t0.elapsed().as_nanos() as u64;
                        self.oracle_span_checks += 1;
                    }
                    if let Err(report) = checked {
                        return Err(SimError::Divergence(report));
                    }
                }
            }
            self.stats.committed += 1;
            retired += 1;
            self.last_commit_cycle = self.cycle;
            if has_two_operands(e.class) {
                debug_assert!(e.exec_stats_counted, "committed without issuing");
                self.stats.width_committed.record_width(e.width as u32);
            }
            if e.rec.instr.op == Opcode::Halt {
                self.done = true;
                break;
            }
        }
        // Stall attribution: charge every lost commit slot of this cycle
        // to a single cause, so that over a whole run
        // `sum(stall slots) == commit_width * cycles - committed` exactly.
        let width = self.config.commit_width as u64;
        if retired < width {
            let cause = self.stall_cause();
            let lost = width - retired;
            self.stats.stall.charge(cause, lost);
            // Attribute the lost slots to the instruction blocking
            // commit — the window head — or, with an empty window,
            // to the PC fetch is (re)starting from.
            let pc = self
                .window_front()
                .map(|e| e.rec.pc)
                .unwrap_or_else(|| self.frontend.pc());
            if let Some(pcs) = self.stall_pcs.as_mut() {
                pcs.entry(pc).or_default().charge(cause, lost);
            }
        }
        Ok(())
    }

    /// Names the bottleneck of a cycle whose commit stage retired fewer
    /// than `commit_width` instructions. Top-down CPI-stack style: the
    /// oldest instruction in the window — or the empty window itself —
    /// speaks for the whole cycle.
    fn stall_cause(&self) -> StallCause {
        if self.done {
            return StallCause::Drain;
        }
        let Some(front) = self.window_front() else {
            // Empty window: the front end owns the stall.
            if self.frontend.halted() && self.ifq_len() == 0 {
                return StallCause::Drain;
            }
            if self.cycle < self.fetch_resume {
                return self.fetch_stall; // IcacheMiss or MispredictRecovery
            }
            return StallCause::Frontend;
        };
        if !front.issued {
            if front.replay_attempted && front.earliest_issue >= self.cycle {
                return StallCause::ReplayPenalty;
            }
            if front.idep_remaining > 0 {
                return StallCause::TrueDependency;
            }
            if front.is_load() && self.load_action(self.slot(self.head_seq)) == LoadAction::Wait {
                // Blocked behind an older store: a memory dependency.
                return StallCause::TrueDependency;
            }
            if front.earliest_issue >= self.cycle {
                // Freshly dispatched: still filling the pipeline.
                return StallCause::Frontend;
            }
            // Ready and old enough, yet not picked: structural.
            return StallCause::FuContention;
        }
        if !front.completed {
            if front.dmiss {
                return StallCause::DcacheMiss;
            }
            if self.window_len() >= self.config.ruu_size {
                return StallCause::RuuFull;
            }
            if self.lsq_len >= self.config.lsq_size {
                return StallCause::LsqFull;
            }
            return StallCause::ExecLatency;
        }
        // Front completed but the cycle still lost slots: commit stopped
        // mid-width (a `halt` retired, handled above) or the window ran
        // dry behind the retired burst.
        StallCause::Frontend
    }

    // ----------------------------------------------------------------
    // Ring helpers
    // ----------------------------------------------------------------

    /// The ring slot of sequence number `seq`.
    fn slot(&self, seq: u64) -> usize {
        seq as usize & self.ring_mask
    }

    /// RUU occupancy.
    fn window_len(&self) -> usize {
        (self.ifq_seq - self.head_seq) as usize
    }

    /// Fetch-queue occupancy.
    fn ifq_len(&self) -> usize {
        (self.fetch_seq - self.ifq_seq) as usize
    }

    /// The oldest RUU entry, if any.
    fn window_front(&self) -> Option<&Entry> {
        (self.head_seq < self.ifq_seq).then(|| &self.ring[self.slot(self.head_seq)])
    }
}

/// A packing group being formed during one issue cycle.
#[derive(Debug, Clone, Copy)]
struct OpenGroup {
    opcode: Opcode,
    members: usize,
    has_replay: bool,
    /// Ring slot of the instruction that opened the group.
    leader: usize,
}

/// Index of `pc` in the per-text-word replay-confidence table. Only
/// decodable text addresses are ever fetched, wrong path included.
fn replay_slot(pc: u64) -> usize {
    ((pc - nwo_isa::TEXT_BASE) >> 2) as usize
}

/// Classes whose records carry two meaningful source-operand values
/// (the population of Figures 1 and 2).
fn has_two_operands(class: OpClass) -> bool {
    matches!(
        class,
        OpClass::IntArith
            | OpClass::Logic
            | OpClass::Shift
            | OpClass::Mult
            | OpClass::Div
            | OpClass::Load
            | OpClass::Store
    )
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // explicit Table 1 tweaks read better
mod tests {
    use super::*;
    use nwo_core::PackConfig;
    use nwo_isa::assemble;

    fn run_src(src: &str, config: SimConfig) -> Machine {
        let prog = assemble(src).expect("assembles");
        let mut m = Machine::new(&prog, config);
        m.run(u64::MAX).expect("runs to halt");
        m
    }

    #[test]
    fn trivial_program_commits_and_halts() {
        let m = run_src("main: li t0, 42\n outq t0\n halt", SimConfig::default());
        assert!(m.done);
        assert_eq!(m.out_quads(), &[42]);
        assert_eq!(m.stats().committed, 3);
        assert!(m.stats().cycles > 0);
    }

    #[test]
    fn loop_produces_correct_architected_output() {
        let src = concat!(
            "main: clr t0\n li t1, 100\n",
            "loop: addq t0, t1, t0\n subq t1, 1, t1\n bgt t1, loop\n",
            " outq t0\n halt"
        );
        let m = run_src(src, SimConfig::default());
        assert_eq!(m.out_quads(), &[5050]);
    }

    #[test]
    fn perfect_prediction_never_recovers() {
        let src = concat!(
            "main: clr t0\n li t1, 50\n",
            "loop: addq t0, t1, t0\n subq t1, 1, t1\n bgt t1, loop\n",
            " outq t0\n halt"
        );
        let m = run_src(src, SimConfig::default().with_perfect_prediction());
        assert_eq!(m.stats().branch.mispredicts, 0);
        assert_eq!(m.stats().squashed, 0);
        assert_eq!(m.out_quads(), &[1275]);
    }

    #[test]
    fn realistic_prediction_recovers_but_stays_correct() {
        // A data-dependent unpredictable branch pattern.
        let src = concat!(
            "main: clr t0\n clr t2\n li t1, 64\n",
            "loop: and t1, 5, t3\n",
            " beq t3, skip\n",
            " addq t0, 1, t0\n",
            "skip: addq t2, t1, t2\n",
            " subq t1, 1, t1\n",
            " bgt t1, loop\n",
            " outq t0\n outq t2\n halt"
        );
        let perfect = run_src(src, SimConfig::default().with_perfect_prediction());
        let real = run_src(src, SimConfig::default());
        assert_eq!(perfect.out_quads(), real.out_quads(), "outputs must agree");
        assert!(
            real.stats().branch.mispredicts > 0,
            "pattern must mispredict"
        );
        assert!(real.stats().squashed > 0);
        assert!(
            real.stats().cycles >= perfect.stats().cycles,
            "mispredictions cannot speed things up"
        );
    }

    #[test]
    fn memory_dependencies_respected() {
        // Store then immediately load the same location.
        let src = concat!(
            ".data\nbuf: .space 64\n.text\n",
            "main: la t0, buf\n li t1, 1234\n",
            " stq t1, 8(t0)\n",
            " ldq t2, 8(t0)\n",
            " outq t2\n halt"
        );
        let m = run_src(src, SimConfig::default());
        assert_eq!(m.out_quads(), &[1234]);
    }

    #[test]
    fn wide_decode_config_runs() {
        let src = concat!(
            "main: clr t0\n li t1, 30\n",
            "loop: addq t0, 3, t0\n subq t1, 1, t1\n bgt t1, loop\n",
            " outq t0\n halt"
        );
        let m = run_src(src, SimConfig::default().with_wide_decode());
        assert_eq!(m.out_quads(), &[90]);
    }

    #[test]
    fn packing_preserves_architecture() {
        // Independent narrow adds that should pack.
        let src = concat!(
            "main: li t0, 1\n li t1, 2\n li t2, 3\n li t3, 4\n",
            " addq t0, 10, t4\n addq t1, 10, t5\n addq t2, 10, t6\n addq t3, 10, t7\n",
            " addq t4, t5, t4\n addq t6, t7, t6\n addq t4, t6, t4\n",
            " outq t4\n halt"
        );
        let base = run_src(src, SimConfig::default());
        let packed = run_src(
            src,
            SimConfig::default().with_packing(PackConfig::default()),
        );
        assert_eq!(base.out_quads(), packed.out_quads());
        assert_eq!(packed.out_quads(), &[50]);
        assert!(packed.stats().pack.groups > 0, "narrow adds should pack");
    }

    #[test]
    fn replay_packing_squashes_on_carry() {
        // One operand wide with a low half that forces a carry.
        let src = concat!(
            "main: li t0, 0xffff\n",
            " sll t0, 16, t1\n", // t1 = 0xffff_0000
            " bis t1, t0, t1\n", // t1 = 0xffff_ffff (low 16 all ones)
            " li t2, 7\n",
            // Two same-opcode adds: one packable pair where the replay
            // member (wide t1 + narrow) must carry out of bit 15.
            " addq t2, 1, t3\n addq t1, t2, t4\n",
            " outq t4\n halt"
        );
        let m = run_src(
            src,
            SimConfig::default().with_packing(PackConfig::with_replay()),
        );
        assert_eq!(m.out_quads(), &[0xffff_ffffu64 + 7]);
        if m.stats().pack.replay_issued > 0 {
            assert_eq!(m.stats().pack.replay_squashed, m.stats().pack.replay_issued);
        }
    }

    #[test]
    fn warmup_trains_state_without_committing() {
        let src = concat!(
            "main: clr t0\n li t1, 40\n",
            "loop: addq t0, t1, t0\n subq t1, 1, t1\n bgt t1, loop\n",
            " outq t0\n halt"
        );
        let prog = assemble(src).unwrap();
        let mut m = Machine::new(&prog, SimConfig::default());
        let warmed = m.warmup(50).unwrap();
        assert_eq!(warmed, 50);
        assert_eq!(m.stats().committed, 0);
        assert!(m.hierarchy_stats().l1i.accesses() > 0);
        // Detailed simulation picks up where warmup left off.
        m.run(u64::MAX).unwrap();
        assert!(m.done);
        assert_eq!(m.out_quads(), &[820]);
    }

    #[test]
    fn deadlock_reported_not_hung() {
        // An infinite loop never commits halt but always commits
        // *something*, so drive deadlock differently: max_cycles.
        let src = "main: br main";
        let prog = assemble(src).unwrap();
        let mut config = SimConfig::default();
        config.max_cycles = 5_000;
        let mut m = Machine::new(&prog, config);
        let err = m.run(u64::MAX).unwrap_err();
        assert_eq!(err, SimError::CycleLimit { limit: 5_000 });
    }

    #[test]
    fn run_with_instruction_budget_stops_early() {
        let src = concat!("main: clr t0\n", "loop: addq t0, 1, t0\n br loop");
        let prog = assemble(src).unwrap();
        let mut m = Machine::new(&prog, SimConfig::default());
        m.run(1000).unwrap();
        assert!(m.stats().committed >= 1000);
        assert!(!m.done);
    }

    #[test]
    fn bad_fetch_on_correct_path_is_an_error() {
        let prog = assemble("main: nop").unwrap();
        let mut m = Machine::new(&prog, SimConfig::default());
        let err = m.run(u64::MAX).unwrap_err();
        assert!(matches!(err, SimError::BadFetch { .. }));
    }

    #[test]
    fn width_stats_collected() {
        let m = run_src(
            "main: li t0, 17\n addq t0, 2, t1\n outq t1\n halt",
            SimConfig::default(),
        );
        assert!(m.stats().width_committed.total() > 0);
        assert!(m.stats().width_executed.total() > 0);
        assert!(m.stats().breakdown.total_instructions > 0);
        // The add of 17+2 is a narrow op; cumulative at 16 must be > 0.
        assert!(m.stats().width_committed.cumulative(16) > 0.0);
    }

    #[test]
    fn gating_stats_collected_on_baseline_run() {
        let m = run_src(
            "main: li t0, 17\n addq t0, 2, t1\n outq t1\n halt",
            SimConfig::default(),
        );
        let report = m.stats().power.report(m.stats().cycles);
        assert!(report.baseline_mw_per_cycle > 0.0);
        assert!(m.stats().gated_ops > 0, "17+2 gates at 16 bits");
    }

    #[test]
    fn cmov_old_value_dependency_is_honoured() {
        // The cmov must wait for BOTH the condition and the old value of
        // its destination; a long-latency producer of the old value must
        // not be bypassed.
        let src = concat!(
            "main: li t0, 21\n",
            " mulq t0, 2, t1\n", // t1 = 42, 3-cycle latency
            " clr t2\n",
            " cmovne t2, zero, t1\n", // condition false: t1 stays 42
            " cmoveq t2, t0, t3\n",   // condition true: t3 = 21
            " addq t1, t3, v0\n",
            " outq v0\n halt"
        );
        let m = run_src(src, SimConfig::default());
        assert_eq!(m.out_quads(), &[63]);
        let p = run_src(
            src,
            SimConfig::default().with_packing(PackConfig::with_replay()),
        );
        assert_eq!(p.out_quads(), &[63]);
    }

    /// One cycle of [`Machine::run`], for tests that inspect the
    /// scheduler between cycles.
    fn step(m: &mut Machine) {
        m.cycle += 1;
        m.commit().expect("commits");
        m.writeback();
        m.issue();
        m.dispatch();
        m.fetch().expect("fetches");
    }

    /// Steps `m` to `halt`, calling `check` after every cycle.
    fn step_to_halt(m: &mut Machine, mut check: impl FnMut(&Machine)) {
        while !m.done {
            assert!(m.cycle < 100_000, "runs to halt");
            step(m);
            check(m);
        }
    }

    /// The RUU entries, oldest first.
    fn window(m: &Machine) -> impl Iterator<Item = &Entry> {
        (m.head_seq..m.ifq_seq).map(|seq| &m.ring[m.slot(seq)])
    }

    fn emulated(src: &str) -> Vec<u64> {
        let mut emu = nwo_isa::Emulator::new(&assemble(src).unwrap());
        emu.run(1_000_000).unwrap();
        emu.outq().to_vec()
    }

    #[test]
    fn completions_beyond_the_wheel_span_land_on_time() {
        let span = CompletionWheel::SPAN as u64;
        let mut config = SimConfig::default().with_trace(64);
        config.div_latency = 2 * span + 7;
        config.hierarchy.memory_latency = span + 50;
        let h = config.hierarchy;
        // Cold load: L1 miss, L2 miss, memory, data-TLB miss.
        let cold =
            h.l1d.hit_latency + h.l2.unwrap().hit_latency + h.memory_latency + h.dtlb.miss_latency;
        assert!(cold > span && config.div_latency > span);
        let src = concat!(
            ".data\nbuf: .quad 40\n.text\n",
            "main: la t0, buf\n li t1, 1000\n",
            " ldq t2, 0(t0)\n",
            " divq t1, t2, t3\n",
            " outq t3\n halt"
        );
        let m = run_src(src, config.clone());
        assert_eq!(m.out_quads(), &[25]);
        let trace = m.trace();
        let find = |op| trace.iter().find(|r| r.instr.op == op).unwrap();
        let (ld, div) = (find(Opcode::Ldq), find(Opcode::Divq));
        assert_eq!(ld.completed_at - ld.issued_at, config.alu_latency + cold);
        assert_eq!(
            div.issued_at, ld.completed_at,
            "the divide wakes on the load"
        );
        assert_eq!(div.completed_at - div.issued_at, config.div_latency);
    }

    #[test]
    fn replay_squash_reenters_the_ready_set_after_its_penalty() {
        // Narrow adds pair with a wide accumulator add whose low half is
        // all ones, so its replay-packed lane carries out of bit 15.
        let src = concat!(
            "main: li t0, 0xffff\n sll t0, 16, t1\n bis t1, t0, t1\n",
            " li t2, 7\n li s0, 20\n clr v0\n",
            "loop: addq s0, 1, t3\n addq t1, t2, t4\n",
            " addq v0, t3, v0\n addq v0, t4, v0\n",
            " subq s0, 1, s0\n bgt s0, loop\n",
            " outq v0\n halt"
        );
        let config = SimConfig::default().with_packing(PackConfig::with_replay());
        let penalty = config.pack_config().unwrap().replay_penalty.max(1);
        let mut m = Machine::new(&assemble(src).unwrap(), config);
        // (seq, uid, cycle the squashed op may issue again)
        let mut squashed: Vec<(u64, u64, u64)> = Vec::new();
        let mut reissued = 0;
        let mut seen = 0;
        step_to_halt(&mut m, |m| {
            if m.stats.pack.replay_squashed > seen {
                seen = m.stats.pack.replay_squashed;
                let e = window(m)
                    .find(|e| e.replay_attempted && !e.issued && e.earliest_issue > m.cycle)
                    .expect("the squashed op stays in the window");
                assert_eq!(e.earliest_issue, m.cycle + penalty);
                assert!(m.ready.contains(m.slot(e.seq)), "back in the ready set");
                squashed.push((e.seq, e.uid, e.earliest_issue));
            }
            for &(seq, uid, earliest) in &squashed {
                let e = &m.ring[m.slot(seq)];
                if e.uid == uid && e.issued && e.issued_at == m.cycle {
                    assert!(m.cycle >= earliest, "re-issued before its penalty");
                    reissued += 1;
                }
            }
        });
        assert!(!squashed.is_empty(), "the carry must squash a replay");
        assert_eq!(reissued, squashed.len(), "every squashed op re-issues");
        assert_eq!(m.out_quads(), emulated(src).as_slice());
    }

    #[test]
    fn recovery_reuses_seqs_past_stale_completions() {
        // A data-dependent branch mispredicts; the long multiply on its
        // wrong path issues before the branch resolves, is squashed, and
        // its completion is still pending when the correct path reuses
        // its sequence number.
        let src = concat!(
            "main: clr t0\n clr t2\n li t1, 48\n li t5, 1000\n li t6, 7\n",
            "loop: and t1, 5, t3\n",
            " beq t3, skip\n",
            " mulq t5, t6, t7\n",
            " addq t0, t7, t0\n",
            "skip: addq t2, t1, t2\n",
            " subq t1, 1, t1\n",
            " bgt t1, loop\n",
            " outq t0\n outq t2\n halt"
        );
        let mut config = SimConfig::default();
        config.mult_latency = 60;
        let mut m = Machine::new(&assemble(src).unwrap(), config);
        let mut reused = 0;
        step_to_halt(&mut m, |m| {
            let stale_reused = m
                .wheel
                .pending()
                .filter(|c| c.seq < m.ifq_seq && !m.live(c))
                .count();
            reused += stale_reused;
            for e in window(m) {
                assert!(
                    !e.completed || e.complete_at <= m.cycle,
                    "seq {} completed early by a stale completion",
                    e.seq
                );
            }
        });
        assert!(m.stats.squashed > 0);
        assert!(
            reused > 0,
            "a squashed seq must be reused while its completion is pending"
        );
        assert_eq!(m.out_quads(), emulated(src).as_slice());
    }

    /// The ring is walked by every stage: keep a slot within three cache
    /// lines, so the default 128-slot ring stays inside a 32 KiB L1d.
    /// Control-only predictor state belongs in [`CtrlSlot`], not here
    /// (see DESIGN.md, "Hot/cold slot").
    #[test]
    fn ring_entry_stays_cache_sized() {
        assert!(
            std::mem::size_of::<Entry>() <= 192,
            "Entry grew to {} bytes",
            std::mem::size_of::<Entry>()
        );
    }

    #[test]
    fn function_calls_use_ras() {
        let src = concat!(
            "main: li a0, 3\n call f\n mov v0, s0\n",
            " li a0, 4\n call f\n addq s0, v0, v0\n",
            " outq v0\n halt\n",
            "f: mulq a0, a0, v0\n ret"
        );
        let m = run_src(src, SimConfig::default());
        assert_eq!(m.out_quads(), &[25]);
        let ps = m.predictor_stats().unwrap();
        assert!(ps.ras_pops > 0);
    }
}
