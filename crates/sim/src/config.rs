//! Simulator configuration. [`SimConfig::default`] reproduces the
//! baseline machine of Table 1 verbatim.

use nwo_bpred::PredictorConfig;
use nwo_core::{GatingConfig, PackConfig};
use nwo_mem::HierarchyConfig;

/// Largest `trace_limit` [`SimConfig::validate`] accepts: in-memory
/// retention of 2^24 records (~1 GiB) is the point past which only a
/// streaming sink makes sense.
pub const MAX_TRACE_LIMIT: usize = 1 << 24;

/// Branch-prediction mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorChoice {
    /// Oracle prediction: fetch always follows the true path (the paper's
    /// "perfect branch prediction" configurations).
    Perfect,
    /// A real trained predictor.
    Real(PredictorConfig),
}

/// Which of the paper's two optimizations is active.
///
/// "Since the power optimization involves clock gating functional units
/// and the performance optimization involves executing instructions in
/// parallel, only one technique can be used at a time." (Section 5)
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimization {
    /// Baseline machine. Power statistics are still collected (gating is
    /// timing-neutral), using the default [`GatingConfig`].
    None,
    /// Operand-based clock gating (Section 4).
    ClockGating(GatingConfig),
    /// Issue-time operation packing (Section 5).
    Packing(PackConfig),
}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Register update unit entries (Table 1: 80).
    pub ruu_size: usize,
    /// Load/store queue entries (Table 1: 40).
    pub lsq_size: usize,
    /// Fetch queue entries (Table 1: 8).
    pub ifq_size: usize,
    /// Instructions fetched per cycle (Table 1: 4).
    pub fetch_width: usize,
    /// Instructions decoded/dispatched per cycle (Table 1: 4).
    pub decode_width: usize,
    /// Issue slots per cycle, out-of-order (Table 1: 4). A packed group
    /// consumes a single slot.
    pub issue_width: usize,
    /// Instructions committed per cycle, in-order (Table 1: 4).
    pub commit_width: usize,
    /// Integer ALUs; arithmetic, logical, shift, memory and branch
    /// operations all contend for these (Table 1: 4).
    pub int_alus: usize,
    /// Integer multiply/divide units (Table 1: 1).
    pub int_muldiv: usize,
    /// ALU latency in cycles.
    pub alu_latency: u64,
    /// Pipelined multiply latency in cycles.
    pub mult_latency: u64,
    /// Non-pipelined divide latency in cycles.
    pub div_latency: u64,
    /// Branch prediction mode (Table 1: the combining predictor).
    pub predictor: PredictorChoice,
    /// Extra fetch-redirect cycles after a misprediction resolves
    /// (Table 1: 2).
    pub mispredict_penalty: u64,
    /// Memory hierarchy (Table 1 caches, TLBs and memory).
    pub hierarchy: HierarchyConfig,
    /// Active optimization.
    pub optimization: Optimization,
    /// Gating configuration used for the always-on power bookkeeping when
    /// `optimization` is not [`Optimization::ClockGating`].
    pub power_bookkeeping: GatingConfig,
    /// Zero-detect performed on values arriving from the data cache
    /// (Section 4.2 discusses processors where this is impossible; when
    /// false, load results carry unknown width tags).
    pub zero_detect_loads: bool,
    /// Hard cycle limit (guards against simulator deadlock).
    pub max_cycles: u64,
    /// Record a pipeline trace for the first N committed instructions
    /// (0 disables tracing). Each record carries the fetch, dispatch,
    /// issue, completion and commit cycles — SimpleScalar's `ptrace`.
    pub trace_limit: usize,
    /// Run a lockstep architectural oracle (a second functional
    /// emulator) against every committed instruction, turning silent
    /// state corruption into a typed
    /// [`SimError::Divergence`](crate::SimError::Divergence) (`nwo sim
    /// --verify`).
    pub verify: bool,
}

impl Default for SimConfig {
    /// The Table 1 baseline configuration.
    fn default() -> Self {
        SimConfig {
            ruu_size: 80,
            lsq_size: 40,
            ifq_size: 8,
            fetch_width: 4,
            decode_width: 4,
            issue_width: 4,
            commit_width: 4,
            int_alus: 4,
            int_muldiv: 1,
            alu_latency: 1,
            mult_latency: 3,
            div_latency: 20,
            predictor: PredictorChoice::Real(PredictorConfig::default()),
            mispredict_penalty: 2,
            hierarchy: HierarchyConfig::default(),
            optimization: Optimization::None,
            power_bookkeeping: GatingConfig::default(),
            zero_detect_loads: true,
            max_cycles: u64::MAX,
            trace_limit: 0,
            verify: false,
        }
    }
}

impl SimConfig {
    /// Switches to perfect (oracle) branch prediction.
    pub fn with_perfect_prediction(mut self) -> Self {
        self.predictor = PredictorChoice::Perfect;
        self
    }

    /// Enables clock gating with the given configuration.
    pub fn with_gating(mut self, gating: GatingConfig) -> Self {
        self.optimization = Optimization::ClockGating(gating);
        self
    }

    /// Enables operation packing with the given configuration.
    pub fn with_packing(mut self, pack: PackConfig) -> Self {
        self.optimization = Optimization::Packing(pack);
        self
    }

    /// The paper's widened front end (Section 5.4): decode and fetch
    /// width raised from 4 to 8.
    pub fn with_wide_decode(mut self) -> Self {
        self.fetch_width = 8;
        self.decode_width = 8;
        self.ifq_size = 16;
        self
    }

    /// Enables pipeline tracing for the first `limit` committed
    /// instructions.
    pub fn with_trace(mut self, limit: usize) -> Self {
        self.trace_limit = limit;
        self
    }

    /// The Figure 11 comparison machine: issue width 8 and 8 integer
    /// ALUs (fetch/decode/commit stay at 4).
    pub fn with_eight_issue(mut self) -> Self {
        self.issue_width = 8;
        self.int_alus = 8;
        self
    }

    /// Enables the lockstep architectural oracle.
    pub fn with_verify(mut self) -> Self {
        self.verify = true;
        self
    }

    /// The [`nwo_core::PackConfig`] in effect, if packing is enabled.
    pub fn pack_config(&self) -> Option<PackConfig> {
        match self.optimization {
            Optimization::Packing(p) => Some(p),
            _ => None,
        }
    }

    /// The gating configuration used for power bookkeeping.
    pub fn gating_config(&self) -> GatingConfig {
        match self.optimization {
            Optimization::ClockGating(g) => g,
            _ => self.power_bookkeeping,
        }
    }

    /// A stable 64-bit fingerprint of the full configuration — equal
    /// fingerprints mean every field (including the nested gating,
    /// packing, predictor and hierarchy configurations) is equal, so a
    /// simulation result for one config can stand in for the other.
    ///
    /// The experiment harness keys its memo cache on this value
    /// (`(benchmark, scale, fingerprint)`), deduplicating the many
    /// figures that re-simulate the same machine. Implemented as FNV-1a
    /// over the `Debug` rendering: every field is integer, bool or
    /// enum, so the rendering is deterministic and injective for the
    /// configurations the harness constructs. The value is stable
    /// within a build but is not a cross-version serialization contract.
    pub fn fingerprint(&self) -> u64 {
        nwo_ckpt::fnv1a(format!("{self:?}").as_bytes())
    }

    /// A fingerprint of only the *warm-state-bearing* configuration: the
    /// memory hierarchy and the branch predictor. Two configs with equal
    /// warm fingerprints train identical cache/TLB/predictor state
    /// during warmup, so a warmed checkpoint taken under one is valid
    /// for the other even when they differ in, say, issue width or the
    /// active optimization. The checkpoint `meta` section embeds this
    /// value and restore rejects a mismatch with
    /// [`nwo_ckpt::CkptError::Mismatch`].
    pub fn warm_fingerprint(&self) -> u64 {
        nwo_ckpt::fnv1a(format!("{:?}|{:?}", self.hierarchy, self.predictor).as_bytes())
    }

    /// Validates structural parameters, returning the first problem as
    /// a typed [`ConfigError`]. Configurations can arrive from the
    /// command line, so a bad one is an input error, not an invariant
    /// violation.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] describing the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let positives: [(bool, &'static str); 11] = [
            (self.ruu_size > 0, "RUU size"),
            (self.lsq_size > 0, "LSQ size"),
            (self.ifq_size > 0, "fetch queue size"),
            (self.fetch_width > 0, "fetch width"),
            (self.decode_width > 0, "decode width"),
            (self.issue_width > 0, "issue width"),
            (self.commit_width > 0, "commit width"),
            (self.int_alus > 0, "integer ALU count"),
            (self.int_muldiv > 0, "integer mul/div unit count"),
            (self.alu_latency >= 1, "ALU latency"),
            (self.max_cycles > 0, "max_cycles"),
        ];
        for (ok, what) in positives {
            if !ok {
                return Err(ConfigError::ZeroParameter { what });
            }
        }
        // `trace_limit` retains every record in memory; past this point
        // the in-memory trace cannot be honoured without defeating its
        // purpose — stream with a JsonlSink instead (`--trace-out`).
        if self.trace_limit > MAX_TRACE_LIMIT {
            return Err(ConfigError::TraceLimitTooLarge {
                requested: self.trace_limit,
            });
        }
        Ok(())
    }
}

/// A structurally invalid [`SimConfig`] or run configuration —
/// reachable from bad command-line input, hence an error rather than
/// a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A capacity, width or latency that must be positive is zero.
    ZeroParameter {
        /// Human-readable name of the offending parameter.
        what: &'static str,
    },
    /// `trace_limit` exceeds the in-memory cap [`MAX_TRACE_LIMIT`].
    TraceLimitTooLarge {
        /// The requested limit.
        requested: usize,
    },
    /// An output path (`--profile-out`, `--telemetry-out`, …) cannot
    /// be written — caught up front so a long simulation never runs
    /// just to fail at the final write.
    UnwritableOutput {
        /// The flag that supplied the path.
        flag: &'static str,
        /// The offending path as given.
        path: String,
        /// Why the path is unwritable.
        reason: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroParameter { what } => {
                write!(f, "{what} must be positive")
            }
            ConfigError::TraceLimitTooLarge { requested } => write!(
                f,
                "trace_limit {requested} exceeds the in-memory cap {MAX_TRACE_LIMIT}; \
                 use a streaming trace sink for longer traces"
            ),
            ConfigError::UnwritableOutput { flag, path, reason } => {
                write!(f, "{flag} {path}: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Checks that `path`'s parent directory exists, is a directory, and
/// is not read-only — the up-front guard behind every `*-out` flag, so
/// an unwritable destination is a typed [`ConfigError`] before the run
/// instead of an I/O panic after it.
///
/// # Errors
///
/// [`ConfigError::UnwritableOutput`] naming the flag, path and reason.
pub fn validate_output_parent(flag: &'static str, path: &str) -> Result<(), ConfigError> {
    let unwritable = |reason| ConfigError::UnwritableOutput {
        flag,
        path: path.to_string(),
        reason,
    };
    if path.is_empty() {
        return Err(unwritable("empty path"));
    }
    let parent = match std::path::Path::new(path).parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => std::path::Path::new("."),
    };
    match std::fs::metadata(parent) {
        Err(_) => Err(unwritable("parent directory does not exist")),
        Ok(meta) if !meta.is_dir() => Err(unwritable("parent is not a directory")),
        Ok(meta) if meta.permissions().readonly() => {
            Err(unwritable("parent directory is read-only"))
        }
        Ok(_) => Ok(()),
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // explicit Table 1 tweaks read better
mod tests {
    use super::*;

    #[test]
    fn default_is_table1() {
        let c = SimConfig::default();
        assert_eq!(c.ruu_size, 80);
        assert_eq!(c.lsq_size, 40);
        assert_eq!(c.ifq_size, 8);
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.decode_width, 4);
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.commit_width, 4);
        assert_eq!(c.int_alus, 4);
        assert_eq!(c.int_muldiv, 1);
        assert_eq!(c.mispredict_penalty, 2);
        assert!(matches!(c.predictor, PredictorChoice::Real(_)));
        assert_eq!(c.optimization, Optimization::None);
        assert!(c.zero_detect_loads);
        assert!(!c.verify, "the oracle is opt-in");
        c.validate().expect("Table 1 is valid");
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::default()
            .with_perfect_prediction()
            .with_packing(PackConfig::with_replay())
            .with_wide_decode();
        assert_eq!(c.predictor, PredictorChoice::Perfect);
        assert_eq!(c.decode_width, 8);
        assert_eq!(c.fetch_width, 8);
        assert!(c.pack_config().unwrap().replay);
        c.validate().expect("composed builders stay valid");
    }

    #[test]
    fn eight_issue_machine() {
        let c = SimConfig::default().with_eight_issue();
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.int_alus, 8);
        assert_eq!(c.decode_width, 4, "figure 11 keeps decode at 4");
    }

    #[test]
    fn gating_config_resolution() {
        let base = SimConfig::default();
        assert_eq!(base.gating_config(), GatingConfig::default());
        let custom = GatingConfig {
            gate33: false,
            ..GatingConfig::default()
        };
        let gated = SimConfig::default().with_gating(custom);
        assert_eq!(gated.gating_config(), custom);
        assert!(gated.pack_config().is_none());
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        assert_eq!(
            SimConfig::default().fingerprint(),
            SimConfig::default().fingerprint(),
            "identical configs share a fingerprint"
        );
        let base = SimConfig::default().fingerprint();
        let mut ruu = SimConfig::default();
        ruu.ruu_size += 1;
        assert_ne!(base, ruu.fingerprint(), "scalar fields are hashed");
        let mut zdl = SimConfig::default();
        zdl.zero_detect_loads = false;
        assert_ne!(base, zdl.fingerprint(), "bool fields are hashed");
        assert_ne!(
            base,
            SimConfig::default().with_perfect_prediction().fingerprint(),
            "predictor choice is hashed"
        );
        assert_ne!(
            base,
            SimConfig::default()
                .with_gating(GatingConfig::default())
                .fingerprint(),
            "the optimization variant is hashed"
        );
        let custom_gate = GatingConfig {
            gate33: false,
            ..GatingConfig::default()
        };
        assert_ne!(
            SimConfig::default()
                .with_gating(GatingConfig::default())
                .fingerprint(),
            SimConfig::default().with_gating(custom_gate).fingerprint(),
            "nested config fields are hashed"
        );
    }

    #[test]
    fn default_fingerprint_is_pinned() {
        // Memo and disk-cache keys derive from this value: a change to
        // the hash or to the `Debug` rendering must be deliberate.
        assert_eq!(SimConfig::default().fingerprint(), 0x7c0d_72b3_a09b_ab5e);
    }

    #[test]
    fn warm_fingerprint_tracks_only_warm_state() {
        let base = SimConfig::default().warm_fingerprint();
        let mut wide = SimConfig::default();
        wide.issue_width = 8;
        wide.int_alus = 8;
        assert_eq!(
            base,
            wide.warm_fingerprint(),
            "issue width does not affect warmed state"
        );
        assert_ne!(
            base,
            SimConfig::default()
                .with_perfect_prediction()
                .warm_fingerprint(),
            "the predictor choice does"
        );
        let mut mem = SimConfig::default();
        mem.hierarchy.memory_latency += 1;
        assert_ne!(base, mem.warm_fingerprint(), "the hierarchy does");
    }

    #[test]
    fn zero_ruu_rejected() {
        let mut c = SimConfig::default();
        c.ruu_size = 0;
        let err = c.validate().expect_err("zero RUU is invalid");
        assert_eq!(err, ConfigError::ZeroParameter { what: "RUU size" });
        assert!(err.to_string().contains("RUU"), "{err}");
    }

    #[test]
    fn oversized_trace_limit_rejected() {
        let mut c = SimConfig::default();
        c.trace_limit = MAX_TRACE_LIMIT + 1;
        let err = c.validate().expect_err("oversized trace limit is invalid");
        assert_eq!(
            err,
            ConfigError::TraceLimitTooLarge {
                requested: MAX_TRACE_LIMIT + 1
            }
        );
        assert!(err.to_string().contains("trace_limit"), "{err}");
    }

    #[test]
    fn zero_max_cycles_rejected() {
        let mut c = SimConfig::default();
        c.max_cycles = 0;
        let err = c.validate().expect_err("zero max_cycles is invalid");
        assert!(err.to_string().contains("max_cycles"), "{err}");
    }

    #[test]
    fn output_parent_validation() {
        let dir = std::env::temp_dir().join(format!("nwo-cfg-out-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ok = dir.join("trace.json");
        validate_output_parent("--profile-out", ok.to_str().unwrap())
            .expect("existing writable parent is accepted");
        validate_output_parent("--profile-out", "bare-name.json")
            .expect("a bare filename writes to the current directory");

        let missing = dir.join("no-such-subdir/trace.json");
        let err = validate_output_parent("--profile-out", missing.to_str().unwrap())
            .expect_err("missing parent is rejected");
        assert_eq!(
            err,
            ConfigError::UnwritableOutput {
                flag: "--profile-out",
                path: missing.to_str().unwrap().to_string(),
                reason: "parent directory does not exist",
            }
        );
        assert!(err.to_string().contains("--profile-out"), "{err}");

        let file = dir.join("plain-file");
        std::fs::write(&file, b"x").expect("write");
        let through_file = format!("{}/tele.jsonl", file.display());
        let err = validate_output_parent("--telemetry-out", &through_file)
            .expect_err("a file is not a directory");
        assert!(
            err.to_string().contains("parent is not a directory"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
