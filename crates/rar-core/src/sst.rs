//! PRE's runahead bookkeeping structures: the stalling slice table (SST)
//! and the precise register deallocation queue (PRDQ).
//!
//! The SST remembers the program counters of instructions that belong to
//! the *backward slices* of LLC-missing loads — the chains that compute
//! future load addresses. During lean runahead, only SST-resident
//! instructions (and loads themselves) are executed; everything else is
//! skipped after fetch. The table is learned in normal mode: whenever a
//! load turns out to miss the LLC, the core walks its in-flight producers
//! and inserts their PCs.
//!
//! The PRDQ bounds how many physical registers runahead execution may hold
//! at once; our timing model uses it as a concurrency cap on in-flight
//! runahead slice operations.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fully-associative, LRU table of slice program counters.
///
/// # Examples
///
/// ```
/// use rar_core::sst::Sst;
/// let mut sst = Sst::new(4);
/// sst.insert(0x100);
/// assert!(sst.contains(0x100));
/// assert!(!sst.contains(0x104));
/// ```
#[derive(Debug, Clone)]
pub struct Sst {
    /// Resident PC tags, in slot order.
    pcs: Vec<u64>,
    /// LRU stamp of each slot (parallel to `pcs`).
    last_use: Vec<u64>,
    /// Lowest slot holding each resident PC (a fault can alias two
    /// slots onto one PC; lookups then hit the lower one, as a scan in
    /// slot order would).
    index: HashMap<u64, usize, BuildHasherDefault<PcHasher>>,
    capacity: usize,
    tick: u64,
    hits: u64,
    lookups: u64,
}

impl Sst {
    /// Creates an empty table with `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Sst {
            pcs: Vec::with_capacity(capacity),
            last_use: Vec::with_capacity(capacity),
            index: HashMap::default(),
            capacity,
            tick: 0,
            hits: 0,
            lookups: 0,
        }
    }

    /// Slot of the first entry tagged `pc`.
    fn find(&self, pc: u64) -> Option<usize> {
        self.index.get(&pc).copied()
    }

    /// Retags `slot` from its current PC to `pc`, keeping the index on
    /// the lowest slot of every PC.
    fn retag(&mut self, slot: usize, pc: u64) {
        let old = std::mem::replace(&mut self.pcs[slot], pc);
        if self.index.get(&old) == Some(&slot) {
            match self.pcs.iter().position(|&p| p == old) {
                Some(other) => self.index.insert(old, other),
                None => self.index.remove(&old),
            };
        }
        let lowest = self.index.entry(pc).or_insert(slot);
        *lowest = (*lowest).min(slot);
    }

    /// Inserts `pc`, evicting the LRU entry when full.
    pub fn insert(&mut self, pc: u64) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(i) = self.find(pc) {
            self.last_use[i] = tick;
            return;
        }
        if self.pcs.len() < self.capacity {
            self.index.insert(pc, self.pcs.len());
            self.pcs.push(pc);
            self.last_use.push(tick);
            return;
        }
        let lru = self
            .last_use
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .map(|(i, _)| i)
            .expect("capacity is nonzero");
        self.retag(lru, pc);
        self.last_use[lru] = tick;
    }

    /// True if `pc` belongs to a known stalling slice; refreshes LRU and
    /// counts a lookup.
    pub fn contains(&mut self, pc: u64) -> bool {
        self.tick += 1;
        self.lookups += 1;
        if let Some(i) = self.find(pc) {
            self.last_use[i] = self.tick;
            self.hits += 1;
            true
        } else {
            false
        }
    }

    /// Resident slice PCs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// True when no slices have been learned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// (hits, lookups) telemetry.
    #[must_use]
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.lookups)
    }

    /// Fault injection: flips bit `bit` of the `idx`-th resident PC tag.
    /// Returns `false` when the addressed slot is vacant. The corrupted
    /// tag changes future slice-membership decisions only — the SST is
    /// pure prefetch metadata, so the architectural effect is timing.
    pub fn corrupt_entry(&mut self, idx: usize, bit: u64) -> bool {
        match self.pcs.get(idx) {
            Some(&pc) => {
                self.retag(idx, pc ^ (1 << (bit % 48)));
                true
            }
            None => false,
        }
    }
}

/// Hashes PC keys by one multiply and a fold: the table is small and its
/// keys are program counters, not adversarial input.
#[derive(Debug, Default)]
struct PcHasher(u64);

impl Hasher for PcHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// The precise register deallocation queue: a counter-semantics model of
/// PRE's runahead register recycling. Runahead slice operations hold an
/// entry from pseudo-issue until their (pseudo-)release; when the queue is
/// full, runahead execution stalls.
#[derive(Debug, Clone)]
pub struct Prdq {
    capacity: usize,
    /// Release times of in-flight runahead operations.
    inflight: Vec<u64>,
    peak: usize,
}

impl Prdq {
    /// Creates an empty queue with `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Prdq {
            capacity,
            inflight: Vec::new(),
            peak: 0,
        }
    }

    /// Tries to admit a runahead operation releasing at `release_at`.
    /// Returns `false` when the queue is full at `now`.
    pub fn try_push(&mut self, now: u64, release_at: u64) -> bool {
        self.inflight.retain(|&r| r > now);
        if self.inflight.len() >= self.capacity {
            return false;
        }
        self.inflight.push(release_at);
        self.peak = self.peak.max(self.inflight.len());
        true
    }

    /// `(entries, oldest release, newest release)`: changes whenever an
    /// operation is admitted or released.
    #[must_use]
    pub(crate) fn span(&self) -> (usize, u64, u64) {
        (
            self.inflight.len(),
            self.inflight.first().copied().unwrap_or(0),
            self.inflight.last().copied().unwrap_or(0),
        )
    }

    /// Whether the last cycle, `now`, released exactly the oldest entry
    /// and admitted one more, leaving one release per cycle from `now + 1`
    /// on, where `before` (the [`Prdq::span`] at the start of the cycle)
    /// also held one release per cycle from `now` on. Every further cycle
    /// that re-admits one operation then repeats it; see [`Prdq::delay`].
    #[must_use]
    pub(crate) fn one_release_per_cycle(&self, now: u64, before: (usize, u64, u64)) -> bool {
        let n = self.inflight.len() as u64;
        n > 0
            && before == (self.inflight.len(), now, now + n - 1)
            && self
                .inflight
                .iter()
                .zip(now + 1..)
                .all(|(&release, due)| release == due)
    }

    /// Delays every release by `cycles`: the state after `cycles` more
    /// cycles that each admit one operation in the steady state of
    /// [`Prdq::one_release_per_cycle`].
    pub(crate) fn delay(&mut self, cycles: u64) {
        for release in &mut self.inflight {
            *release += cycles;
        }
    }

    /// When the queue is full, the first release after `now` (when it can
    /// admit again).
    #[must_use]
    pub(crate) fn next_release_when_full(&self, now: u64) -> Option<u64> {
        if self.inflight.len() < self.capacity {
            return None;
        }
        self.inflight.iter().copied().filter(|&r| r > now).min()
    }

    /// Empties the queue (runahead exit).
    pub fn clear(&mut self) {
        self.inflight.clear();
    }

    /// High-water mark of simultaneously-held entries.
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_contains() {
        let mut sst = Sst::new(8);
        sst.insert(0x40);
        assert!(sst.contains(0x40));
        assert!(!sst.contains(0x44));
        assert_eq!(sst.hit_stats(), (1, 2));
    }

    #[test]
    fn lru_eviction() {
        let mut sst = Sst::new(2);
        sst.insert(0x10);
        sst.insert(0x20);
        assert!(sst.contains(0x10)); // refresh 0x10
        sst.insert(0x30); // evicts 0x20
        assert!(sst.contains(0x10));
        assert!(!sst.contains(0x20));
        assert!(sst.contains(0x30));
    }

    #[test]
    fn reinsert_refreshes_not_duplicates() {
        let mut sst = Sst::new(2);
        sst.insert(0x10);
        sst.insert(0x10);
        assert_eq!(sst.len(), 1);
    }

    #[test]
    fn aliased_tags_resolve_like_a_scan_in_slot_order() {
        let mut sst = Sst::new(3);
        for pc in [0x10, 0x20, 0x30] {
            sst.insert(pc);
        }
        // Flip slot 2's tag (0x30) onto slot 0's PC (0x10, bit 5).
        assert!(sst.corrupt_entry(2, 5));
        assert!(!sst.contains(0x30));
        assert_eq!(sst.find(0x10), Some(0), "the lower slot answers");
        assert!(sst.contains(0x20));
        // Slot 0 is now least recently used: evicting it hands 0x10 to
        // the aliased slot.
        sst.insert(0x40);
        for pc in [0x10u64, 0x20, 0x30, 0x40] {
            let scan = sst.pcs.iter().position(|&p| p == pc);
            assert_eq!(sst.find(pc), scan, "pc {pc:#x}");
        }
        assert_eq!(sst.find(0x10), Some(2));
    }

    #[test]
    fn prdq_bounds_inflight() {
        let mut q = Prdq::new(2);
        assert!(q.try_push(0, 100));
        assert!(q.try_push(0, 200));
        assert!(!q.try_push(0, 300), "full");
        assert!(q.try_push(100, 300), "released at 100");
        assert_eq!(q.peak(), 2);
    }

    #[test]
    fn prdq_clear() {
        let mut q = Prdq::new(1);
        assert!(q.try_push(0, 1_000));
        q.clear();
        assert!(q.try_push(1, 1_000));
    }
}
