//! Event-driven scheduling structures of the cycle core: the
//! age-ordered ready set the issue stage walks and the completion wheel
//! the writeback stage drains. Both index RUU ring slots (see
//! `machine.rs`), so neither allocates once warm.

/// Ring slots whose instruction is dispatched, has every source operand
/// available and has not issued: one bit per slot.
#[derive(Debug, Clone)]
pub(crate) struct ReadySet {
    words: Vec<u64>,
    mask: usize,
}

impl ReadySet {
    /// A set over `slots` ring slots — a power of two, at least 64, so
    /// the ring wraps exactly at a word boundary.
    pub(crate) fn new(slots: usize) -> Self {
        assert!(slots.is_power_of_two() && slots >= 64);
        ReadySet {
            words: vec![0; slots / 64],
            mask: slots - 1,
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, slot: usize) {
        self.words[slot >> 6] |= 1 << (slot & 63);
    }

    #[inline]
    pub(crate) fn remove(&mut self, slot: usize) {
        self.words[slot >> 6] &= !(1 << (slot & 63));
    }

    #[cfg(test)]
    pub(crate) fn contains(&self, slot: usize) -> bool {
        self.words[slot >> 6] & (1 << (slot & 63)) != 0
    }

    /// The smallest age `>= from` and `< len` whose slot
    /// (`(head + age) & mask`) is in the set — the oldest ready
    /// instruction at or after position `from` of a window starting at
    /// ring slot `head`.
    #[inline]
    pub(crate) fn next(&self, head: usize, from: usize, len: usize) -> Option<usize> {
        let mut age = from;
        while age < len {
            let slot = (head + age) & self.mask;
            let bits = self.words[slot >> 6] >> (slot & 63);
            if bits != 0 {
                age += bits.trailing_zeros() as usize;
                return (age < len).then_some(age);
            }
            age += 64 - (slot & 63);
        }
        None
    }
}

/// A pending writeback: the instruction `(seq, uid)` finishes executing
/// at cycle `due`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Completion {
    pub(crate) due: u64,
    pub(crate) seq: u64,
    /// The slot occupant's allocation id; a completion whose
    /// instruction was squashed (its seq may since have been reused)
    /// no longer matches its slot and is dropped.
    pub(crate) uid: u64,
}

/// Pending completions bucketed by cycle modulo the span. A completion
/// further away than the span waits in its bucket for as many turns of
/// the wheel as it needs (it is only drained once due), so the span
/// bounds nothing but the cost of a lap.
#[derive(Debug, Clone)]
pub(crate) struct CompletionWheel {
    buckets: Vec<Vec<Completion>>,
    mask: u64,
}

impl CompletionWheel {
    /// Wheel span in cycles: above the longest fixed latency of the
    /// Table 1 machine (cold L1 + L2 + memory + TLB miss = 143).
    pub(crate) const SPAN: usize = 256;

    pub(crate) fn new() -> Self {
        CompletionWheel {
            buckets: vec![Vec::new(); Self::SPAN],
            mask: Self::SPAN as u64 - 1,
        }
    }

    /// Schedules `c` for writeback. Writeback runs before issue within
    /// a cycle, so a completion due at or before the current cycle `now`
    /// (a zero-latency unit) is written back next cycle.
    #[inline]
    pub(crate) fn schedule(&mut self, now: u64, c: Completion) {
        let at = c.due.max(now + 1);
        self.buckets[(at & self.mask) as usize].push(c);
    }

    /// Every pending completion, in no particular order.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> impl Iterator<Item = &Completion> {
        self.buckets.iter().flatten()
    }

    /// Moves every completion due by cycle `now` from this cycle's
    /// bucket into `out`, in scheduling order.
    #[inline]
    pub(crate) fn drain_due(&mut self, now: u64, out: &mut Vec<Completion>) {
        let bucket = &mut self.buckets[(now & self.mask) as usize];
        if bucket.iter().all(|c| c.due <= now) {
            out.append(bucket);
        } else {
            bucket.retain(|c| {
                let due = c.due <= now;
                if due {
                    out.push(*c);
                }
                !due
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_set_walks_in_age_order_across_the_wrap() {
        let mut r = ReadySet::new(128);
        // Window of 100 entries starting at slot 100: ages 0..28 are
        // slots 100..128, ages 28.. wrap to slot 0.
        for slot in [101, 127, 0, 63, 64, 71] {
            r.insert(slot);
        }
        let mut ages = Vec::new();
        let mut from = 0;
        while let Some(a) = r.next(100, from, 100) {
            ages.push(a);
            from = a + 1;
        }
        assert_eq!(ages, vec![1, 27, 28, 91, 92, 99]);
        // A member beyond the window length is not reported.
        assert_eq!(r.next(100, 0, 1), None);
        r.remove(101);
        assert!(!r.contains(101));
        assert_eq!(r.next(100, 0, 100), Some(27));
    }

    #[test]
    fn wheel_holds_completions_beyond_its_span() {
        let mut w = CompletionWheel::new();
        let far = CompletionWheel::SPAN as u64 * 2 + 5;
        w.schedule(
            0,
            Completion {
                due: far,
                seq: 1,
                uid: 1,
            },
        );
        w.schedule(
            0,
            Completion {
                due: 5,
                seq: 2,
                uid: 2,
            },
        );
        let mut out = Vec::new();
        for now in 1..far {
            w.drain_due(now, &mut out);
            if now == 5 {
                assert_eq!(out.len(), 1);
                assert_eq!(out[0].seq, 2);
                out.clear();
            }
            assert!(out.is_empty(), "nothing else is due at {now}");
        }
        w.drain_due(far, &mut out);
        assert_eq!(
            out,
            vec![Completion {
                due: far,
                seq: 1,
                uid: 1
            }]
        );
    }

    #[test]
    fn late_completion_lands_next_cycle() {
        let mut w = CompletionWheel::new();
        w.schedule(
            7,
            Completion {
                due: 7,
                seq: 0,
                uid: 0,
            },
        );
        let mut out = Vec::new();
        w.drain_due(7, &mut out);
        assert!(out.is_empty());
        w.drain_due(8, &mut out);
        assert_eq!(out.len(), 1);
    }
}
