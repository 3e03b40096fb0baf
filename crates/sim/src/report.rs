//! End-of-run report: one struct carrying every number the paper's
//! figures need, with a human-readable `Display`.

use crate::stats::SimStats;
use nwo_bpred::PredictorStats;
use nwo_mem::HierarchyStats;
use nwo_obs::StallBreakdown;
use nwo_power::PowerReport;
use std::fmt;

/// Summary of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Full statistics (histograms, breakdowns, packing counters, …).
    pub stats: SimStats,
    /// Lost-commit-slot attribution (a clone of `stats.stall`, kept
    /// directly on the report for figure code and CSV export).
    pub stall: StallBreakdown,
    /// Whether operation packing was configured for the run — the
    /// `Display` impl prints the packing line whenever the optimization
    /// was on, even if no group ever formed (a zero row is a result,
    /// not an absence of one).
    pub packing_enabled: bool,
    /// Integer-unit power summary (Figures 6 and 7).
    pub power: PowerReport,
    /// Memory-system narrow-width extension summary (Section 6 future
    /// work).
    pub mem_ext: nwo_power::MemPowerReport,
    /// Cache and TLB counters.
    pub hierarchy: HierarchyStats,
    /// Predictor counters (absent under perfect prediction).
    pub predictor: Option<PredictorStats>,
    /// Bytes emitted by committed `outb` instructions.
    pub out_bytes: Vec<u8>,
    /// Quadwords emitted by committed `outq` instructions.
    pub out_quads: Vec<u64>,
}

impl SimReport {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Serializes the full report into a standalone checkpoint container
    /// (one `report` section) — the payload the bench harness persists
    /// into its `NWO_CACHE_DIR` disk memo cache.
    pub fn to_ckpt_bytes(&self) -> Vec<u8> {
        let mut w = nwo_ckpt::CheckpointWriter::new();
        w.write_section("report", self);
        w.into_bytes()
    }

    /// Inverse of [`SimReport::to_ckpt_bytes`]. Verifies magic, format
    /// version, code salt and the section CRC before decoding.
    ///
    /// # Errors
    ///
    /// Any [`nwo_ckpt::CkptError`] for a foreign, stale, truncated or
    /// corrupted container.
    pub fn from_ckpt_bytes(bytes: &[u8]) -> Result<SimReport, nwo_ckpt::CkptError> {
        let reader = nwo_ckpt::CheckpointReader::from_bytes(bytes)?;
        let mut report = SimReport::zeroed();
        reader.restore_section("report", &mut report)?;
        Ok(report)
    }

    /// An all-zero receiver for [`SimReport::from_ckpt_bytes`].
    fn zeroed() -> SimReport {
        SimReport {
            stats: SimStats::default(),
            stall: StallBreakdown::new(),
            packing_enabled: false,
            power: nwo_power::PowerAccumulator::new().report(1),
            mem_ext: nwo_power::MemPowerExt::new().report(1),
            hierarchy: HierarchyStats::default(),
            predictor: None,
            out_bytes: Vec::new(),
            out_quads: Vec::new(),
        }
    }
}

impl nwo_ckpt::Checkpointable for SimReport {
    fn save(&self, w: &mut nwo_ckpt::SectionWriter) {
        use nwo_ckpt::Checkpointable as Ckpt;
        Ckpt::save(&self.stats, w);
        w.put_bool(self.packing_enabled);
        Ckpt::save(&self.power, w);
        Ckpt::save(&self.mem_ext, w);
        Ckpt::save(&self.hierarchy, w);
        w.put_bool(self.predictor.is_some());
        if let Some(p) = &self.predictor {
            Ckpt::save(p, w);
        }
        w.put_bytes(&self.out_bytes);
        w.put_u64(self.out_quads.len() as u64);
        for &q in &self.out_quads {
            w.put_u64(q);
        }
        // `stall` is a clone of `stats.stall` by construction; it is
        // rebuilt on restore rather than stored twice.
    }

    fn restore(&mut self, r: &mut nwo_ckpt::SectionReader) -> Result<(), nwo_ckpt::CkptError> {
        use nwo_ckpt::Checkpointable as Ckpt;
        Ckpt::restore(&mut self.stats, r)?;
        self.packing_enabled = r.take_bool("report packing_enabled")?;
        Ckpt::restore(&mut self.power, r)?;
        Ckpt::restore(&mut self.mem_ext, r)?;
        Ckpt::restore(&mut self.hierarchy, r)?;
        if r.take_bool("report predictor presence")? {
            let mut stats = PredictorStats::default();
            Ckpt::restore(&mut stats, r)?;
            self.predictor = Some(stats);
        } else {
            self.predictor = None;
        }
        self.out_bytes = r.take_bytes(u64::MAX, "report out_bytes")?;
        let quads = r.take_len(u64::MAX, "report out_quads count")?;
        self.out_quads = Vec::new();
        for _ in 0..quads {
            self.out_quads.push(r.take_u64("report out_quad")?);
        }
        self.stall = self.stats.stall.clone();
        Ok(())
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.stats;
        writeln!(f, "cycles:               {}", s.cycles)?;
        writeln!(f, "committed:            {}", s.committed)?;
        writeln!(f, "ipc:                  {:.4}", s.ipc())?;
        writeln!(f, "fetched/issued:       {} / {}", s.fetched, s.issued)?;
        writeln!(f, "squashed:             {}", s.squashed)?;
        writeln!(
            f,
            "branches:             {} committed, {} mispredicted ({:.2}% accuracy)",
            s.branch.committed,
            s.branch.mispredicts,
            s.branch.accuracy() * 100.0
        )?;
        writeln!(
            f,
            "narrow ops:           {:.1}% <=16 bits, {:.1}% <=33 bits (executed)",
            s.breakdown.narrow16_total_fraction() * 100.0,
            s.breakdown.narrow33_total_fraction() * 100.0
        )?;
        writeln!(
            f,
            "power (int unit):     {:.1} mW baseline, {:.1} mW gated ({:.1}% reduction)",
            self.power.baseline_mw_per_cycle,
            self.power.gated_mw_per_cycle,
            self.power.reduction_percent
        )?;
        writeln!(
            f,
            "mem ext (Section 6):  {:.1}% of moved bytes redundant; data-array+bus power -{:.1}%",
            self.mem_ext.redundant_byte_fraction * 100.0,
            self.mem_ext.reduction_percent
        )?;
        if self.packing_enabled || s.pack.groups > 0 {
            writeln!(
                f,
                "packing:              {} groups, {} ops packed, {} slots saved, {} replays ({} squashed)",
                s.pack.groups,
                s.pack.packed_ops,
                s.pack.slots_saved,
                s.pack.replay_issued,
                s.pack.replay_squashed
            )?;
        }
        if self.stall.total() > 0 {
            write!(f, "lost commit slots:    {} (", self.stall.total())?;
            let mut first = true;
            for (cause, slots) in self.stall.iter() {
                if slots == 0 {
                    continue;
                }
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "{cause} {:.1}%", self.stall.fraction(cause) * 100.0)?;
            }
            writeln!(f, ")")?;
        }
        writeln!(
            f,
            "occupancy:            RUU {:.1} avg, {:.2} ALUs busy, issue saturated {:.1}% of cycles",
            s.occupancy.avg_ruu(s.cycles),
            s.occupancy.avg_alus(s.cycles),
            s.occupancy.saturation_fraction(s.cycles) * 100.0
        )?;
        writeln!(
            f,
            "L1D miss rate:        {:.4}",
            self.hierarchy.l1d.miss_rate()
        )?;
        Ok(())
    }
}
