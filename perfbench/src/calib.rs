//! Host-speed calibration for the single-thread workloads.
//!
//! The host the benchmark was tuned on slows the detailed model by up to
//! 2x in phases lasting seconds to minutes (see README.md). No statistic
//! over one run's passes removes a phase that covers the whole run, so
//! every workload interleaves a fixed calibration loop with its work —
//! between simulation slices, between the steps of an op, between
//! experiments, after each kernel build — and scales every end-to-end
//! time by how slow that loop ran in the same run:
//!
//! ```text
//! factor = CAL_REF_S / mean(calibration sample)
//! ```
//!
//! The loop is the benchmark's own code, so a change to the program
//! moves the measured time and leaves the factor alone. It allocates,
//! fills and frees short-lived vectors and small boxes: of the loops
//! tried (dependent loads over 4 MiB and 128 MiB, an ILP-heavy hash,
//! memset/memcpy of 1 MiB, allocation churn) it tracked the detailed
//! model's slow phases best (correlation 0.76–0.83 per sample).

use std::hint::black_box;
use std::time::Instant;

/// Seconds one calibration sample takes on the tuning host (a 2-vCPU
/// Xeon KVM guest) in a quiet phase; the factor is 1 when samples take
/// this long.
pub const CAL_REF_S: f64 = 0.0056;

/// Rounds of allocation churn in one sample.
const ROUNDS: u32 = 1_500;

/// Seconds of work per sample: [`HostClock::tick`] takes one sample per
/// this much time since the last one, so the mean weighs the run's
/// phases by how long they lasted.
const WORK_PER_SAMPLE_S: f64 = 0.1;

/// One calibration sample: the fixed allocation-churn loop.
fn churn() -> u64 {
    let mut x = 0u64;
    for r in 0..ROUNDS {
        let len = 1_000 + (r as usize * 7_919) % 5_000;
        let v: Vec<u64> = vec![u64::from(r); len];
        let boxes: Vec<Box<[u32; 16]>> = (0..64).map(|i| Box::new([i + r; 16])).collect();
        x = x.wrapping_add(
            black_box(&v)[len / 2] + u64::from(black_box(&boxes)[r as usize % 64][5]),
        );
    }
    x
}

/// Calibration samples taken during a run.
#[derive(Debug, Default)]
pub struct HostClock {
    on: bool,
    /// When the last sample ended.
    last: Option<Instant>,
    samples: Vec<f64>,
    /// Seconds spent sampling, to subtract from the work's wall time.
    spent_s: f64,
}

impl HostClock {
    /// A clock that samples when `on` (otherwise [`HostClock::tick`] is
    /// free).
    pub fn new(on: bool) -> HostClock {
        HostClock {
            on,
            ..HostClock::default()
        }
    }

    /// Switches sampling on or off (off for traced passes, whose spans
    /// must not hold calibration time).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
        self.last = None;
    }

    /// When on, takes one sample per [`WORK_PER_SAMPLE_S`] elapsed since
    /// the last (at least one).
    pub fn tick(&mut self) {
        if !self.on {
            return;
        }
        let since = self.last.map_or(0.0, |t| t.elapsed().as_secs_f64());
        let n = (since / WORK_PER_SAMPLE_S).round().max(1.0) as usize;
        for _ in 0..n {
            let t = Instant::now();
            black_box(churn());
            let s = t.elapsed().as_secs_f64();
            self.samples.push(s);
            self.spent_s += s;
        }
        self.last = Some(Instant::now());
    }

    /// Adds samples another process took (the `figs-sweep` child); their
    /// time is already out of the pass wall.
    pub fn absorb(&mut self, samples: &[f64]) {
        self.samples.extend_from_slice(samples);
    }

    /// Seconds spent sampling so far.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// The samples taken so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// `CAL_REF_S / mean sample`: multiply a time measured in this run
    /// by it to get the time on the host in a quiet phase. 1 without
    /// samples.
    pub fn factor(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let mean = self.samples.iter().sum::<f64>() / self.samples.len() as f64;
        CAL_REF_S / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_takes_no_samples_and_factor_is_one() {
        let mut c = HostClock::new(false);
        c.tick();
        assert!(c.samples().is_empty());
        assert_eq!((c.spent_s(), c.factor()), (0.0, 1.0));
    }

    #[test]
    fn on_samples_and_accounts_time() {
        let mut c = HostClock::new(true);
        c.tick();
        c.tick();
        assert_eq!(c.samples().len(), 2);
        assert!(c.spent_s() > 0.0);
        assert!(c.factor().is_finite() && c.factor() > 0.0);
        std::thread::sleep(std::time::Duration::from_secs_f64(3.0 * WORK_PER_SAMPLE_S));
        c.tick();
        assert!(c.samples().len() >= 4, "a long gap takes several samples");
    }

    #[test]
    fn absorbed_samples_count_in_the_factor() {
        let mut c = HostClock::new(false);
        c.absorb(&[CAL_REF_S * 2.0, CAL_REF_S * 2.0]);
        assert!((c.factor() - 0.5).abs() < 1e-12);
        assert_eq!(c.spent_s(), 0.0);
    }
}
