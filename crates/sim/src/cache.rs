//! Set-associative LRU cache model.

/// Geometry and timing of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Extra cycles on a miss (fill from memory).
    pub miss_penalty: u64,
}

impl CacheConfig {
    /// An 8 KiB, 2-way, 32-byte-line cache with a 20-cycle miss penalty —
    /// the low-end default for both I- and D-cache.
    pub fn embedded_8k() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024,
            line_bytes: 32,
            assoc: 2,
            miss_penalty: 20,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.assoc)
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Tags and last-use stamps sit in two flat arrays, `ways` entries per
/// set; the way with the smallest stamp in a set is its least recently
/// used. Set and tag are `line % sets` and `line / sets`, a mask and a
/// shift when the set count is a power of two. The line accessed last is
/// always resident and already most recently used, so repeating it
/// (sequential fetch within a line) is a hit that changes no state beyond
/// the hit count.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// log2 of the line size.
    line_shift: u32,
    /// Number of sets.
    sets: u64,
    /// log2 of `sets` when it is a power of two.
    set_shift: Option<u32>,
    ways: usize,
    /// `tags[set * ways + w]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// `stamps[set * ways + w]`: the clock value of the way's last use.
    stamps: Vec<u64>,
    clock: u64,
    /// The line accessed last.
    last_line: Option<u64>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// An empty (cold) cache.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_bytes.is_power_of_two(), "line size not a power of two");
        assert!(cfg.assoc >= 1);
        let sets = cfg.num_sets().max(1) as u64;
        let ways = cfg.assoc as usize;
        Cache {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            sets,
            set_shift: sets.is_power_of_two().then(|| sets.trailing_zeros()),
            ways,
            tags: vec![u64::MAX; sets as usize * ways],
            // Which invalid way a cold set fills first changes no hit or
            // miss, so every way starts equally old.
            stamps: vec![0; sets as usize * ways],
            clock: 0,
            last_line: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Access `addr`; returns true on hit. Misses allocate (both reads and
    /// writes: write-allocate).
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_line(addr >> self.line_shift)
    }

    /// Access line number `line` (the address shifted right by log2 of the
    /// line size); returns true on hit.
    pub(crate) fn access_line(&mut self, line: u64) -> bool {
        if self.last_line == Some(line) {
            self.hits += 1;
            return true;
        }
        self.last_line = Some(line);
        let (set, tag) = match self.set_shift {
            Some(shift) => (line & (self.sets - 1), line >> shift),
            None => (line % self.sets, line / self.sets),
        };
        let first = set as usize * self.ways;
        let tags = &mut self.tags[first..first + self.ways];
        let stamps = &mut self.stamps[first..first + self.ways];
        self.clock += 1;
        if let Some(w) = tags.iter().position(|&t| t == tag) {
            self.hits += 1;
            stamps[w] = self.clock;
            true
        } else {
            self.misses += 1;
            let victim = (0..self.ways)
                .min_by_key(|&w| stamps[w])
                .expect("a set has at least one way");
            tags[victim] = tag;
            stamps[victim] = self.clock;
            false
        }
    }

    /// Cycles an access costs beyond the pipeline's base latency.
    pub fn access_cost(&mut self, addr: u64) -> u64 {
        if self.access(addr) {
            0
        } else {
            self.cfg.miss_penalty
        }
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 16-byte lines = 64 bytes.
        Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            assoc: 2,
            miss_penalty: 10,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(15), "same line");
        assert!(!c.access(16), "next line is a different set");
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 lines: line numbers ≡ 0 (mod 2). Lines 0, 2, 4 → addresses
        // 0, 32, 64.
        c.access(0); // miss, set0 = {0}
        c.access(32); // miss, set0 = {0, 2}
        c.access(0); // hit, 0 most recent
        c.access(64); // miss, evicts line 2
        assert!(c.access(0), "line 0 survived");
        assert!(!c.access(32), "line 2 was evicted");
    }

    #[test]
    fn access_cost_reflects_misses() {
        let mut c = tiny();
        assert_eq!(c.access_cost(0), 10);
        assert_eq!(c.access_cost(0), 0);
    }

    #[test]
    fn embedded_default_geometry() {
        let cfg = CacheConfig::embedded_8k();
        assert_eq!(cfg.num_sets(), 128);
        let c = Cache::new(cfg);
        assert_eq!(c.config().miss_penalty, 20);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        c.access(0); // set 0
        c.access(16); // set 1
        assert!(c.access(0));
        assert!(c.access(16));
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::machine::reference;
    use proptest::prelude::*;

    proptest! {
        /// The flat-array cache agrees with the nested-`Vec` original on
        /// every access of arbitrary address streams: 1-, 2- and 4-way,
        /// power-of-two and non-power-of-two set counts, addresses drawn
        /// from a window a few times the capacity plus runs of repeats
        /// (the last-line fast path).
        #[test]
        fn flat_cache_matches_reference(
            geometry in 0usize..6,
            stream in proptest::collection::vec((0u64..4096, 0u8..4), 1..400),
        ) {
            // (size, line, assoc): sets = 8, 8, 4, 3, 6, 5.
            let (size_bytes, line_bytes, assoc) =
                [(256, 32, 1), (512, 32, 2), (512, 32, 4), (192, 32, 2), (768, 32, 4), (80, 16, 1)]
                    [geometry];
            let cfg = CacheConfig { size_bytes, line_bytes, assoc, miss_penalty: 7 };
            let mut flat = Cache::new(cfg);
            let mut old = reference::Cache::new(cfg);
            for (addr, repeats) in stream {
                for _ in 0..=repeats {
                    prop_assert_eq!(flat.access(addr), old.access(addr));
                }
            }
            prop_assert_eq!((flat.hits(), flat.misses()), (old.hits(), old.misses()));
        }
    }
}
