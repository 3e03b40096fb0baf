//! Stall-cycle attribution: every cycle the commit stage retires fewer
//! than `commit_width` instructions, the lost slots are charged to
//! exactly one cause. Because *every* lost slot is charged somewhere,
//! the breakdown satisfies the conservation law
//!
//! ```text
//! sum(slots) == commit_width * cycles - committed
//! ```
//!
//! which the test suite asserts for every run. The taxonomy follows a
//! top-down CPI-stack: the oldest instruction in the window (or the
//! empty window itself) names the bottleneck for the whole cycle.

use crate::metrics::{MetricSource, Registry};

/// Why commit slots were lost in a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Window empty: fetch is waiting on an instruction-cache miss.
    IcacheMiss,
    /// Window empty: fetch is restarting after a branch mispredict.
    MispredictRecovery,
    /// Window empty for other front-end reasons (fill latency,
    /// fetch/dispatch width).
    Frontend,
    /// Oldest instruction is executing and the window is full behind it.
    RuuFull,
    /// Oldest instruction is executing and the load/store queue is full.
    LsqFull,
    /// Oldest instruction is a load waiting on a data-cache miss.
    DcacheMiss,
    /// Oldest instruction is ready but lost issue-slot / ALU arbitration.
    FuContention,
    /// Oldest instruction is waiting for source operands.
    TrueDependency,
    /// Oldest instruction was squashed by a width misprediction and is
    /// serving its replay penalty.
    ReplayPenalty,
    /// Oldest instruction is mid-execution (multi-cycle op or in-order
    /// commit latency).
    ExecLatency,
    /// Program finished: the machine is draining (includes the partial
    /// slots of the halt cycle itself).
    Drain,
}

impl StallCause {
    /// Every cause, in display order.
    pub const ALL: [StallCause; 11] = [
        StallCause::IcacheMiss,
        StallCause::MispredictRecovery,
        StallCause::Frontend,
        StallCause::RuuFull,
        StallCause::LsqFull,
        StallCause::DcacheMiss,
        StallCause::FuContention,
        StallCause::TrueDependency,
        StallCause::ReplayPenalty,
        StallCause::ExecLatency,
        StallCause::Drain,
    ];

    /// Stable machine-readable name (used in JSON and CSV columns).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::IcacheMiss => "icache",
            StallCause::MispredictRecovery => "mispredict",
            StallCause::Frontend => "frontend",
            StallCause::RuuFull => "ruu_full",
            StallCause::LsqFull => "lsq_full",
            StallCause::DcacheMiss => "dcache",
            StallCause::FuContention => "fu",
            StallCause::TrueDependency => "dep",
            StallCause::ReplayPenalty => "replay",
            StallCause::ExecLatency => "exec",
            StallCause::Drain => "drain",
        }
    }

    /// Position in [`StallCause::ALL`], which lists the variants in
    /// declaration order.
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for StallCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Lost commit slots accumulated per [`StallCause`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    slots: [u64; StallCause::ALL.len()],
}

impl StallBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `slots` lost commit slots to `cause`.
    #[inline]
    pub fn charge(&mut self, cause: StallCause, slots: u64) {
        self.slots[cause.index()] += slots;
    }

    /// Slots charged to `cause` so far.
    pub fn get(&self, cause: StallCause) -> u64 {
        self.slots[cause.index()]
    }

    /// Total lost slots across all causes.
    pub fn total(&self) -> u64 {
        self.slots.iter().sum()
    }

    /// Fraction of all lost slots charged to `cause` (0 when none).
    pub fn fraction(&self, cause: StallCause) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(cause) as f64 / total as f64
        }
    }

    /// Iterates `(cause, slots)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (StallCause, u64)> + '_ {
        StallCause::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// Adds another breakdown into this one.
    pub fn merge(&mut self, other: &StallBreakdown) {
        for (a, b) in self.slots.iter_mut().zip(other.slots.iter()) {
            *a += b;
        }
    }
}

impl MetricSource for StallBreakdown {
    fn collect(&self, registry: &mut Registry) {
        for (cause, slots) in self.iter() {
            registry.counter(cause.name(), slots);
        }
        registry.counter("total", self.total());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_causes_in_declaration_order() {
        for (i, cause) in StallCause::ALL.into_iter().enumerate() {
            assert_eq!(cause.index(), i, "{cause}");
        }
    }

    #[test]
    fn charges_accumulate_and_conserve() {
        let mut b = StallBreakdown::new();
        b.charge(StallCause::DcacheMiss, 3);
        b.charge(StallCause::DcacheMiss, 1);
        b.charge(StallCause::Drain, 2);
        assert_eq!(b.get(StallCause::DcacheMiss), 4);
        assert_eq!(b.total(), 6);
        assert!((b.fraction(StallCause::Drain) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<&str> = StallCause::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), StallCause::ALL.len());
    }

    #[test]
    fn merge_adds_per_cause() {
        let mut a = StallBreakdown::new();
        a.charge(StallCause::Frontend, 1);
        let mut b = StallBreakdown::new();
        b.charge(StallCause::Frontend, 2);
        b.charge(StallCause::ExecLatency, 5);
        a.merge(&b);
        assert_eq!(a.get(StallCause::Frontend), 3);
        assert_eq!(a.get(StallCause::ExecLatency), 5);
    }

    #[test]
    fn collects_into_registry() {
        let mut b = StallBreakdown::new();
        b.charge(StallCause::RuuFull, 7);
        let mut r = Registry::new();
        r.source("stall", &b);
        let snap = r.finish();
        assert_eq!(snap.counter("stall.ruu_full"), Some(7));
        assert_eq!(snap.counter("stall.total"), Some(7));
    }
}
