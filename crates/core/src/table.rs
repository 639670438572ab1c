//! The dynamic-programming table `BestPlan(S)`.
//!
//! Keys are [`RelSet`]s — single `u64`s — so the table is a hash map with
//! a fast multiplicative hasher written here (the standard-library
//! SipHash is a poor fit for hot integer keys; see the workspace design
//! notes). The table stores, per relation set, the best plan found so
//! far and its statistics.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use joinopt_cost::PlanStats;
use joinopt_plan::PlanId;
use joinopt_relset::RelSet;

/// A Fibonacci-style multiplicative hasher for `u64` keys.
///
/// Equivalent in spirit to `rustc-hash`'s `FxHasher` for single-word
/// keys; written in-repo to keep the dependency set minimal.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher64 {
    state: u64,
}

/// 64-bit golden-ratio constant (`floor(2^64 / φ)`, forced odd).
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path (not used by RelSet keys, which hash via write_u64):
        // fold 8-byte chunks.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = (self.state.rotate_left(5) ^ x).wrapping_mul(SEED);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// `BuildHasher` for [`FxHasher64`].
pub type BuildFxHasher = BuildHasherDefault<FxHasher64>;

/// One `BestPlan(S)` entry: the plan and its statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableEntry {
    /// Arena id of the best plan for the set.
    pub plan: PlanId,
    /// Cardinality and cost of that plan.
    pub stats: PlanStats,
}

/// Storage interface for `BestPlan(S)` — implemented by the sparse
/// hash-based [`DpTable`] (default) and the dense direct-addressed
/// [`DenseDpTable`] (the Vance/Maier original indexes an array by the
/// subset integer, which is what makes DPsub's inner loop so cheap on
/// dense search spaces). A `&mut` to a table is a table too, so a run
/// can borrow pooled storage it does not own.
pub trait PlanTable {
    /// Looks up `BestPlan(s)`.
    fn get(&self, s: RelSet) -> Option<TableEntry>;

    /// Unconditionally registers `entry` as the plan for `s`.
    fn insert(&mut self, s: RelSet, entry: TableEntry);

    /// `true` iff a plan for `s` is registered.
    fn contains(&self, s: RelSet) -> bool {
        self.get(s).is_some()
    }

    /// Number of sets with a registered plan.
    fn len(&self) -> usize;

    /// Number of entry slots the run addresses (bucket capacity for the
    /// sparse table, `2ⁿ` slots for the dense one). `len / capacity` is
    /// the occupancy telemetry reports.
    fn capacity(&self) -> usize;

    /// Approximate bytes of storage the run addresses — what memory
    /// budgets charge.
    fn bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<(RelSet, TableEntry)>()
    }

    /// `true` iff no plan is registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: PlanTable> PlanTable for &mut T {
    #[inline]
    fn get(&self, s: RelSet) -> Option<TableEntry> {
        (**self).get(s)
    }

    #[inline]
    fn insert(&mut self, s: RelSet, entry: TableEntry) {
        (**self).insert(s, entry);
    }

    #[inline]
    fn contains(&self, s: RelSet) -> bool {
        (**self).contains(s)
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn capacity(&self) -> usize {
        (**self).capacity()
    }

    fn bytes(&self) -> usize {
        (**self).bytes()
    }
}

/// The DP table mapping relation sets to their best plans.
#[derive(Debug, Clone, Default)]
pub struct DpTable {
    map: HashMap<RelSet, TableEntry, BuildFxHasher>,
}

impl DpTable {
    /// Creates an empty table.
    pub fn new() -> DpTable {
        DpTable::default()
    }

    /// Creates a table pre-sized for `cap` entries.
    pub fn with_capacity(cap: usize) -> DpTable {
        DpTable {
            map: HashMap::with_capacity_and_hasher(cap, BuildFxHasher::default()),
        }
    }

    /// Iterates over all `(set, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (RelSet, &TableEntry)> {
        self.map.iter().map(|(k, v)| (*k, v))
    }
}

impl PlanTable for DpTable {
    #[inline]
    fn get(&self, s: RelSet) -> Option<TableEntry> {
        self.map.get(&s).copied()
    }

    /// `true` iff a plan for `s` is registered. Because the algorithms
    /// only register connected sets, this doubles as an O(1)
    /// connectedness test for already-enumerated sets (the standard
    /// DPsub implementation trick).
    #[inline]
    fn contains(&self, s: RelSet) -> bool {
        self.map.contains_key(&s)
    }

    #[inline]
    fn insert(&mut self, s: RelSet, entry: TableEntry) {
        self.map.insert(s, entry);
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn capacity(&self) -> usize {
        self.map.capacity()
    }
}

/// A dense, direct-addressed DP table: slot `s.bits()` holds the entry
/// for set `s`. This is the layout of the original Vance/Maier
/// implementation and what makes DPsub's innermost loop a handful of
/// instructions on dense search spaces — no hashing, no probing.
///
/// The slots are split into a statistics array and a plan-id array
/// (the parallel DPsub engine's workers read only the statistics), and
/// a presence bitmap says which slots hold a plan. [`DenseDpTable::reset`]
/// readies the table for another run by clearing only the `2ⁿ/64`
/// bitmap words that run addresses: a [`crate::Session`] keeps one table
/// across queries, and stale slots behind a cleared bit are never read.
///
/// Memory is `Θ(2ⁿ)`, so it is only used for small `n`
/// ([`DenseDpTable::MAX_RELATIONS`]); DPsub falls back to the sparse
/// [`DpTable`] above that size (where DPsub is infeasible anyway).
#[derive(Debug, Clone, Default)]
pub struct DenseDpTable {
    /// Best (cardinality, cost) per set, direct-addressed by bits.
    pub(crate) stats: Vec<PlanStats>,
    /// Arena id of the best plan per set, direct-addressed by bits.
    pub(crate) plans: Vec<PlanId>,
    /// Presence bitmap over `stats`/`plans`.
    present: Vec<u64>,
    /// `2ⁿ`: the slots the current run addresses.
    slots: usize,
    /// Sets registered in the current run.
    len: usize,
}

impl DenseDpTable {
    /// Largest `n` for which a dense table is reasonable
    /// (2²² entries ≈ 80 MiB).
    pub const MAX_RELATIONS: usize = 22;

    /// Creates a table for subsets of `n` relations.
    ///
    /// # Panics
    ///
    /// Panics if `n > Self::MAX_RELATIONS`.
    pub fn new(n: usize) -> DenseDpTable {
        let mut table = DenseDpTable::default();
        table.reset(n);
        table
    }

    /// Bytes a table for `n` relations addresses: `2ⁿ` slots plus the
    /// presence bitmap.
    pub fn bytes_for(n: usize) -> usize {
        Self::slot_bytes(1usize << n)
    }

    fn slot_bytes(slots: usize) -> usize {
        slots * (std::mem::size_of::<PlanStats>() + std::mem::size_of::<PlanId>())
            + slots.div_ceil(64) * std::mem::size_of::<u64>()
    }

    /// Readies the table for a run over `n` relations: grows the slot
    /// arrays if needed (never shrinks) and clears the first `2ⁿ/64`
    /// presence words — the only state a run can observe.
    ///
    /// # Panics
    ///
    /// Panics if `n > Self::MAX_RELATIONS`.
    pub fn reset(&mut self, n: usize) {
        assert!(
            n <= Self::MAX_RELATIONS,
            "dense DP table limited to {} relations",
            Self::MAX_RELATIONS
        );
        let size = 1usize << n;
        if self.stats.len() < size {
            self.stats.resize(size, PlanStats::base(0.0));
            self.plans.resize(size, PlanId::SENTINEL);
        }
        let words = size.div_ceil(64);
        if self.present.len() < words {
            self.present.resize(words, 0);
        }
        self.present[..words].fill(0);
        self.slots = size;
        self.len = 0;
    }

    /// Bytes the pooled arrays hold, whatever the current run's `n`.
    pub(crate) fn allocated_bytes(&self) -> usize {
        self.stats.capacity() * std::mem::size_of::<PlanStats>()
            + self.plans.capacity() * std::mem::size_of::<PlanId>()
            + self.present.capacity() * std::mem::size_of::<u64>()
    }

    /// `true` iff the set with bitmask `bits` holds a plan.
    #[inline]
    pub(crate) fn is_present(&self, bits: u64) -> bool {
        let idx = bits as usize;
        (self.present[idx >> 6] >> (idx & 63)) & 1 == 1
    }
}

impl PlanTable for DenseDpTable {
    #[inline]
    fn get(&self, s: RelSet) -> Option<TableEntry> {
        let idx = s.bits() as usize;
        self.is_present(s.bits()).then(|| TableEntry {
            plan: self.plans[idx],
            stats: self.stats[idx],
        })
    }

    #[inline]
    fn contains(&self, s: RelSet) -> bool {
        self.is_present(s.bits())
    }

    #[inline]
    fn insert(&mut self, s: RelSet, entry: TableEntry) {
        let idx = s.bits() as usize;
        let (word, bit) = (idx >> 6, 1u64 << (idx & 63));
        if self.present[word] & bit == 0 {
            self.present[word] |= bit;
            self.len += 1;
        }
        self.stats[idx] = entry.stats;
        self.plans[idx] = entry.plan;
    }

    fn len(&self) -> usize {
        self.len
    }

    fn capacity(&self) -> usize {
        self.slots
    }

    /// The `2ⁿ` slots and bitmap words of the current run, not the
    /// pooled capacity: a run is charged the same on a fresh table as
    /// on one that served a larger query before.
    fn bytes(&self) -> usize {
        Self::slot_bytes(self.slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(cost: f64) -> TableEntry {
        // PlanId has no public constructor; fabricate one through an arena.
        let mut arena = joinopt_plan::PlanArena::new();
        let id = arena.add_scan(0, 1.0);
        TableEntry {
            plan: id,
            stats: PlanStats {
                cardinality: 1.0,
                cost,
            },
        }
    }

    #[test]
    fn insert_and_get() {
        let mut t = DpTable::new();
        assert!(t.is_empty());
        let s = RelSet::from_indices([0, 1]);
        t.insert(s, entry(10.0));
        assert_eq!(t.len(), 1);
        assert!(t.contains(s));
        assert_eq!(t.get(s).unwrap().stats.cost, 10.0);
    }

    #[test]
    fn insert_replaces_without_growing_len() {
        fn check(mut t: impl PlanTable) {
            let s = RelSet::single(0);
            t.insert(s, entry(10.0));
            t.insert(s, entry(5.0));
            assert_eq!(t.len(), 1);
            assert_eq!(t.get(s).unwrap().stats.cost, 5.0);
            assert!(t.get(RelSet::single(1)).is_none());
        }
        check(DpTable::new());
        check(DenseDpTable::new(3));
        check(&mut DenseDpTable::new(3));
    }

    #[test]
    fn dense_reset_hides_stale_slots_of_a_larger_run() {
        let mut t = DenseDpTable::new(8);
        let wide = RelSet::from_indices([0, 7]);
        let low = RelSet::from_indices([0, 1]);
        t.insert(wide, entry(1.0));
        t.insert(low, entry(2.0));
        t.reset(3);
        assert!(t.is_empty());
        assert_eq!(t.capacity(), 8);
        assert!(t.get(low).is_none(), "reset clears the addressed bits");
        t.reset(8);
        assert!(t.get(wide).is_none(), "and a later larger run sees none");
        assert!(t.get(low).is_none());
    }
    #[test]
    fn iter_sees_all_entries() {
        let mut t = DpTable::with_capacity(4);
        t.insert(RelSet::single(0), entry(1.0));
        t.insert(RelSet::single(1), entry(2.0));
        let mut sets: Vec<RelSet> = t.iter().map(|(s, _)| s).collect();
        sets.sort();
        assert_eq!(sets, vec![RelSet::single(0), RelSet::single(1)]);
    }

    #[test]
    fn hasher_distributes_dense_keys() {
        // Dense small bitsets (the DP workload) should not collide
        // pathologically: inserting 2^14 distinct keys must keep the map
        // at full size (correctness) — and this exercises write_u64.
        let mut t = DpTable::new();
        for bits in 1u64..(1 << 14) {
            t.insert(RelSet::from_bits(bits), entry(bits as f64));
        }
        assert_eq!(t.len(), (1 << 14) - 1);
    }

    #[test]
    fn bytes_track_the_addressed_storage() {
        let t = DpTable::with_capacity(16);
        assert!(t.bytes() >= 16 * std::mem::size_of::<(RelSet, TableEntry)>());
        let d = DenseDpTable::new(6);
        let slot = std::mem::size_of::<PlanStats>() + std::mem::size_of::<PlanId>();
        assert_eq!(d.bytes(), 64 * slot + std::mem::size_of::<u64>());
        assert_eq!(d.bytes(), DenseDpTable::bytes_for(6));
        // Footprint is a function of `n`, not occupancy...
        let mut d2 = DenseDpTable::new(6);
        d2.insert(RelSet::single(0), entry(1.0));
        assert_eq!(d2.bytes(), d.bytes());
        // ...nor of the pooled capacity an earlier, larger run left.
        let mut pooled = DenseDpTable::new(12);
        pooled.reset(6);
        assert_eq!(pooled.bytes(), d.bytes());
    }

    #[test]
    fn fxhasher_generic_write_path() {
        use std::hash::Hasher as _;
        let mut h1 = FxHasher64::default();
        h1.write(b"hello world!");
        let mut h2 = FxHasher64::default();
        h2.write(b"hello world?");
        assert_ne!(h1.finish(), h2.finish());
    }
}
