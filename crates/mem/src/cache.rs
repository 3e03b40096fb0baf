//! Generic set-associative cache timing model with true-LRU replacement.
//!
//! Only tags, valid and dirty bits are tracked; data lives in
//! [`crate::MainMemory`]. An access reports whether it hit and whether a
//! dirty block was evicted, letting the [`crate::Hierarchy`] compose
//! multi-level latencies.

/// Configuration for one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a power of two.
    pub size_bytes: u64,
    /// Associativity (ways per set). Must divide `size_bytes / block_bytes`.
    pub assoc: u32,
    /// Block (line) size in bytes. Must be a power of two.
    pub block_bytes: u64,
    /// Latency of a hit in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// 64 KB, 2-way, 32-byte blocks, 1-cycle hits — the Table 1 L1 shape.
    pub fn l1_table1() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 2,
            block_bytes: 32,
            hit_latency: 1,
        }
    }

    /// 8 MB, 4-way, 32-byte blocks, 12-cycle hits — the Table 1 L2 shape.
    pub fn l2_table1() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024 * 1024,
            assoc: 4,
            block_bytes: 32,
            hit_latency: 12,
        }
    }

    fn num_sets(&self) -> u64 {
        self.size_bytes / self.block_bytes / self.assoc as u64
    }
}

/// Per-cache hit/miss/writeback counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty blocks evicted (write-backs to the next level).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses have occurred.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

impl nwo_obs::MetricSource for CacheStats {
    fn collect(&self, registry: &mut nwo_obs::Registry) {
        registry.counter("hits", self.hits);
        registry.counter("misses", self.misses);
        registry.counter("writebacks", self.writebacks);
        registry.gauge("miss_rate", self.miss_rate());
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    /// Larger is more recently used.
    lru: u64,
}

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The access hit in this level.
    pub hit: bool,
    /// A dirty victim was evicted (the block must be written back).
    pub writeback: bool,
}

/// A set-associative, write-back, write-allocate cache with true LRU.
///
/// # Example
///
/// ```
/// use nwo_mem::{Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig::l1_table1());
/// assert!(!l1.access(0x40, false).hit); // cold miss
/// assert!(l1.access(0x40, false).hit); // now resident
/// assert!(l1.access(0x44, false).hit); // same 32-byte block
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Every line, set-major and way-minor (set `s` owns lines
    /// `s * assoc..(s + 1) * assoc`), in chunks of `1 << chunk_shift`
    /// lines. A chunk is allocated by the first access that touches it;
    /// `None` stands for a chunk of invalid lines. A cold 8 MB L2 thus
    /// costs nothing to build, only the touched part becomes resident,
    /// and the equal-sized chunks recycle cleanly through the allocator
    /// from one simulation to the next.
    chunks: Vec<Option<Box<[Line]>>>,
    /// `log2(lines per chunk)`; a chunk holds whole sets.
    chunk_shift: u32,
    /// `log2(block_bytes)`: address to block number.
    block_shift: u32,
    /// `num_sets - 1`: block number to set index (the set count is a
    /// power of two because the associativity divides a power of two).
    set_mask: u64,
    /// `log2(num_sets)`: block number to tag.
    tag_shift: u32,
    stats: CacheStats,
    tick: u64,
}

impl Cache {
    /// Builds a cache for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two size or
    /// block size, or associativity that does not divide the block count).
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.size_bytes.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(
            config.block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        assert!(config.assoc >= 1, "associativity must be at least 1");
        assert_eq!(
            (config.size_bytes / config.block_bytes) % config.assoc as u64,
            0,
            "associativity must divide the number of blocks"
        );
        let sets = config.num_sets();
        let lines = sets as usize * config.assoc as usize;
        let chunk = lines.min(Self::CHUNK_LINES.max(config.assoc as usize));
        Cache {
            config,
            chunks: vec![None; lines / chunk],
            chunk_shift: chunk.trailing_zeros(),
            block_shift: config.block_bytes.trailing_zeros(),
            set_mask: sets - 1,
            tag_shift: sets.trailing_zeros(),
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Lines per chunk of line state (the whole cache when it is
    /// smaller, one set when a set is larger).
    const CHUNK_LINES: usize = 4096;

    /// The chunk and in-chunk line range of the set `addr` maps to, and
    /// its tag.
    #[inline]
    fn set_and_tag(&self, addr: u64) -> (usize, std::ops::Range<usize>, u64) {
        let block = addr >> self.block_shift;
        let assoc = self.config.assoc as usize;
        let first = (block & self.set_mask) as usize * assoc;
        let offset = first & ((1 << self.chunk_shift) - 1);
        (
            first >> self.chunk_shift,
            offset..offset + assoc,
            block >> self.tag_shift,
        )
    }

    /// Performs an access, allocating the block on a miss (write-allocate).
    ///
    /// Returns whether the access hit and whether a dirty block was evicted.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.tick += 1;
        let (chunk, set, tag) = self.set_and_tag(addr);
        let tick = self.tick;
        let set = &mut touch(&mut self.chunks[chunk], 1 << self.chunk_shift)[set];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = tick;
            line.dirty |= is_write;
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: false,
            };
        }

        self.stats.misses += 1;
        // Victim: an invalid way if any, else the least recently used.
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
            .expect("associativity >= 1");
        let writeback = victim.valid && victim.dirty;
        if writeback {
            self.stats.writebacks += 1;
        }
        *victim = Line {
            valid: true,
            dirty: is_write,
            tag,
            lru: tick,
        };
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// True if the block containing `addr` is resident (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let (chunk, set, tag) = self.set_and_tag(addr);
        self.chunks[chunk]
            .as_ref()
            .is_some_and(|lines| lines[set].iter().any(|l| l.valid && l.tag == tag))
    }

    /// Invalidates all lines and clears statistics.
    pub fn reset(&mut self) {
        self.chunks.fill(None);
        self.stats = CacheStats::default();
        self.tick = 0;
    }
}

/// The lines of a chunk of `len` lines, allocated (all invalid) on
/// first use.
fn touch(chunk: &mut Option<Box<[Line]>>, len: usize) -> &mut [Line] {
    chunk.get_or_insert_with(|| vec![Line::default(); len].into_boxed_slice())
}

/// Lines are written set-major, way-minor — the storage order — as
/// `valid`, `dirty`, `tag`, `lru`: [`LINE_BYTES`] per line. An invalid
/// `Line::default()` encodes as all zeros, so an untouched chunk is one
/// run of zero bytes, written in one step. On restore, a run of zeros
/// for a chunk the receiver has not allocated is skipped in one step
/// and the chunk stays unallocated; any other bytes decode line by line.
impl nwo_ckpt::Checkpointable for Cache {
    fn save(&self, w: &mut nwo_ckpt::SectionWriter) {
        w.reserve(6 * 8 + (self.chunks.len() << self.chunk_shift) * LINE_BYTES);
        w.put_u64(self.config.num_sets());
        w.put_u64(self.config.assoc as u64);
        w.put_u64(self.tick);
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.misses);
        w.put_u64(self.stats.writebacks);
        for chunk in &self.chunks {
            match chunk {
                None => w.put_zeros(LINE_BYTES << self.chunk_shift),
                Some(lines) => {
                    for line in lines.iter() {
                        w.put_bool(line.valid);
                        w.put_bool(line.dirty);
                        w.put_u64(line.tag);
                        w.put_u64(line.lru);
                    }
                }
            }
        }
    }

    fn restore(&mut self, r: &mut nwo_ckpt::SectionReader) -> Result<(), nwo_ckpt::CkptError> {
        let sets = r.take_u64("cache set count")?;
        if sets != self.config.num_sets() {
            return Err(nwo_ckpt::CkptError::Mismatch {
                what: "cache set count",
                found: sets,
                expected: self.config.num_sets(),
            });
        }
        let assoc = r.take_u64("cache associativity")?;
        if assoc != self.config.assoc as u64 {
            return Err(nwo_ckpt::CkptError::Mismatch {
                what: "cache associativity",
                found: assoc,
                expected: self.config.assoc as u64,
            });
        }
        self.tick = r.take_u64("cache tick")?;
        self.stats.hits = r.take_u64("cache hits")?;
        self.stats.misses = r.take_u64("cache misses")?;
        self.stats.writebacks = r.take_u64("cache writebacks")?;
        for c in 0..self.chunks.len() {
            if self.chunks[c].is_none() && r.skip_zeros(LINE_BYTES << self.chunk_shift) {
                continue;
            }
            for i in 0..1 << self.chunk_shift {
                let line = Line {
                    valid: r.take_bool("cache line valid")?,
                    dirty: r.take_bool("cache line dirty")?,
                    tag: r.take_u64("cache line tag")?,
                    lru: r.take_u64("cache line lru")?,
                };
                // Invalid lines of an untouched chunk stay unallocated.
                if line != Line::default() || self.chunks[c].is_some() {
                    touch(&mut self.chunks[c], 1 << self.chunk_shift)[i] = line;
                }
            }
        }
        Ok(())
    }
}

/// Encoded size of one line: two bool bytes and two `u64`s.
const LINE_BYTES: usize = 1 + 1 + 8 + 8;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16-byte blocks = 128 bytes.
        Cache::new(CacheConfig {
            size_bytes: 128,
            assoc: 2,
            block_bytes: 16,
            hit_latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(15, false).hit, "same block");
        assert!(!c.access(16, false).hit, "next block");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds blocks whose block-number % 4 == 0: addresses 0, 64, 128...
        c.access(0, false);
        c.access(64, false);
        c.access(0, false); // touch block 0 again; 64 is now LRU
        c.access(128, false); // evicts 64
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(64, false);
        let out = c.access(128, false); // evicts dirty block 0
        assert!(out.writeback);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = tiny();
        c.access(0, false);
        c.access(64, false);
        let out = c.access(128, false);
        assert!(!out.writeback);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, true); // hit, now dirty
        c.access(64, false);
        let out = c.access(128, false);
        assert!(out.writeback);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        c.access(16, false);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.accesses(), 3);
        assert!((s.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(0, true);
        c.reset();
        assert!(!c.probe(0));
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn table1_shapes_construct() {
        let l1 = Cache::new(CacheConfig::l1_table1());
        assert_eq!(l1.config().num_sets(), 1024);
        let l2 = Cache::new(CacheConfig::l2_table1());
        assert_eq!(l2.config().num_sets(), 65536);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        Cache::new(CacheConfig {
            size_bytes: 100,
            assoc: 2,
            block_bytes: 16,
            hit_latency: 1,
        });
    }

    #[test]
    fn line_state_is_allocated_where_touched_and_round_trips() {
        use nwo_ckpt::Checkpointable;
        let mut l2 = Cache::new(CacheConfig::l2_table1());
        assert_eq!(l2.chunks.len(), 64);
        l2.access(0x40, true);
        l2.access(0x40 + (1 << 20), false);
        let touched = |c: &Cache| c.chunks.iter().filter(|c| c.is_some()).count();
        assert_eq!(touched(&l2), 2);
        let save = |c: &Cache| {
            let mut w = nwo_ckpt::SectionWriter::new();
            c.save(&mut w);
            w.into_bytes()
        };
        let bytes = save(&l2);
        let mut fresh = Cache::new(CacheConfig::l2_table1());
        fresh
            .restore(&mut nwo_ckpt::SectionReader::new(bytes.clone()))
            .unwrap();
        assert_eq!(touched(&fresh), 2, "invalid chunks stay unallocated");
        assert!(fresh.probe(0x40) && fresh.probe(0x40 + (1 << 20)));
        assert_eq!(save(&fresh), bytes);
        // An untouched cache saves exactly like one whose lines were
        // allocated and invalidated.
        l2.reset();
        assert_eq!(save(&l2), save(&Cache::new(CacheConfig::l2_table1())));
    }

    /// A 256 KB cache: four chunks of 4096 lines, small enough to craft
    /// payloads for by hand.
    fn four_chunks() -> Cache {
        let c = Cache::new(CacheConfig {
            size_bytes: 256 << 10,
            assoc: 2,
            block_bytes: 16,
            hit_latency: 1,
        });
        assert_eq!(c.chunks.len(), 4);
        c
    }

    fn saved(c: &Cache) -> Vec<u8> {
        use nwo_ckpt::Checkpointable;
        let mut w = nwo_ckpt::SectionWriter::new();
        c.save(&mut w);
        w.into_bytes()
    }

    fn restored(c: &mut Cache, bytes: &[u8]) -> Result<(), nwo_ckpt::CkptError> {
        use nwo_ckpt::Checkpointable;
        let mut r = nwo_ckpt::SectionReader::new(bytes);
        c.restore(&mut r)?;
        r.finish("cache")
    }

    /// Offset of line `i` of chunk `c` in a saved payload.
    fn line_at(c: usize, i: usize) -> usize {
        6 * 8 + (c * 4096 + i) * LINE_BYTES
    }

    #[test]
    fn untouched_chunks_save_as_zero_runs() {
        let bytes = saved(&four_chunks());
        assert_eq!(bytes.len(), line_at(4, 0));
        assert!(bytes[line_at(0, 0)..].iter().all(|&b| b == 0));
    }

    #[test]
    fn bad_bool_in_an_otherwise_zero_chunk_is_malformed() {
        for field in [0, 1] {
            let mut bytes = saved(&four_chunks());
            bytes[line_at(2, 77) + field] = 2;
            let err = restored(&mut four_chunks(), &bytes).unwrap_err();
            assert!(
                matches!(&err, nwo_ckpt::CkptError::Malformed(m) if m.contains("bool byte 0x2")),
                "field {field}: {err:?}"
            );
        }
    }

    #[test]
    fn nonzero_line_in_an_untouched_chunk_allocates_it() {
        let mut bytes = saved(&four_chunks());
        // Line 3 (set 1, way 1) of chunk 2: valid, dirty, tag 0x55,
        // lru 9.
        let at = line_at(2, 3);
        bytes[at] = 1;
        bytes[at + 1] = 1;
        bytes[at + 2] = 0x55;
        bytes[at + 10] = 9;
        let mut c = four_chunks();
        restored(&mut c, &bytes).unwrap();
        let allocated: Vec<bool> = c.chunks.iter().map(Option::is_some).collect();
        assert_eq!(allocated, [false, false, true, false]);
        let line = c.chunks[2].as_ref().unwrap()[3];
        assert_eq!(
            line,
            Line {
                valid: true,
                dirty: true,
                tag: 0x55,
                lru: 9
            }
        );
        // Set 2 * 2048 + 1 holds tag 0x55: block (0x55 << 13) | set.
        assert!(c.probe((((0x55 << 13) | (2 * 2048 + 1)) << 4) as u64));
        assert_eq!(saved(&c), bytes);
    }

    #[test]
    fn zero_run_cut_short_is_truncated() {
        let bytes = saved(&four_chunks());
        for cut in [line_at(1, 0) + 5, line_at(3, 4095) + 17, line_at(4, 0) - 1] {
            let err = restored(&mut four_chunks(), &bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, nwo_ckpt::CkptError::Truncated { context } if context.starts_with("cache line")),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn zero_chunk_restored_into_an_allocated_one_invalidates_it() {
        let fresh = saved(&four_chunks());
        let mut c = four_chunks();
        c.access(0x40, true);
        c.access(0x40 + (3 << 15), false);
        assert!(c.chunks[0].is_some() && c.chunks[3].is_some());
        restored(&mut c, &fresh).unwrap();
        assert!(!c.probe(0x40) && !c.probe(0x40 + (3 << 15)));
        assert!(c.chunks[0].is_some(), "restore keeps an allocated chunk");
        assert_eq!(saved(&c), fresh);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 64,
            assoc: 1,
            block_bytes: 16,
            hit_latency: 1,
        });
        c.access(0, false);
        c.access(64, false); // same set, evicts block 0
        assert!(!c.probe(0));
        assert!(c.probe(64));
    }
}
