//! Warp-collective access descriptors.
//!
//! Kernels issue memory operations one warp at a time: a [`WarpAccess`]
//! carries up to 32 lane addresses plus an active mask. This is the unit
//! the coalescer, the caches and the bank-conflict model all operate on.
//!
//! An access knows its *shape*. A **run** is the coalesced pattern — every
//! active lane `l` touches `lane0 + l` — and is stored as that one number,
//! so its bounds, its lines and (when the mask has no hole) its
//! bank-conflict degree and its data movement are closed forms over the
//! mask; a run with holes moves its words, and if it is wider than the
//! banks counts its degree, lane by lane like a gather. Anything else is a
//! **gather**, analysed by one walk over the active lanes. Every analysis
//! lives in this module, and both shapes give the same answer for the same
//! lane addresses: lines come out in first-appearance (lane) order, which
//! the LRU caches downstream depend on, and the bank degree is a property
//! of the address set alone.

use std::ops::Range;

/// Number of threads per warp on every modelled architecture.
pub const WARP_SIZE: usize = 32;

/// One warp-wide memory instruction: per-lane word addresses + active mask.
#[derive(Debug, Clone)]
pub struct WarpAccess {
    /// Bit `l` set means lane `l` participates.
    mask: u32,
    addrs: Addrs,
}

// An access lives on the stack for one instruction: a run never writes the
// gather's bytes, and boxing them would put an allocation on every gather.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Addrs {
    /// Active lane `l` touches `lane0.wrapping_add(l)`; `lane0` itself may
    /// sit "below zero" when the low lanes are inactive.
    Run { lane0: usize },
    /// Word address per lane (meaningless for inactive lanes), with the
    /// smallest and largest active address.
    Gather {
        addrs: [usize; WARP_SIZE],
        lo: usize,
        hi: usize,
    },
}

/// Mask of the lanes `first ..= last`.
#[inline]
pub fn lane_bits(first: usize, last: usize) -> u32 {
    (u32::MAX >> (WARP_SIZE - 1 - last)) & (u32::MAX << first)
}

/// The lanes set in `mask`, ascending.
#[inline]
pub fn lanes_in(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

impl WarpAccess {
    /// An access with no active lanes.
    #[inline]
    pub fn empty() -> Self {
        Self::run_masked(0, 0)
    }

    /// The coalesced pattern over `lanes` consecutive lanes starting at
    /// `first_lane`: lane `l` touches `base + l - first_lane`.
    #[inline]
    pub fn run(first_lane: usize, lanes: usize, base: usize) -> Self {
        debug_assert!(first_lane + lanes <= WARP_SIZE);
        if lanes == 0 {
            return Self::empty();
        }
        Self::run_masked(
            lane_bits(first_lane, first_lane + lanes - 1),
            base.wrapping_sub(first_lane),
        )
    }

    /// The coalesced pattern under an arbitrary mask: every lane `l` in
    /// `mask` touches `lane0 + l`.
    #[inline]
    pub fn run_masked(mask: u32, lane0: usize) -> Self {
        Self {
            mask,
            addrs: Addrs::Run { lane0 },
        }
    }

    /// Fully-active access where lane `l` touches `base + l`.
    #[inline]
    pub fn contiguous(base: usize) -> Self {
        Self::run_masked(u32::MAX, base)
    }

    /// Activate lane `lane` with word address `addr`. The access stays a
    /// run for as long as every lane set so far fits one; the first lane
    /// that does not turns it into a gather for good.
    #[inline]
    pub fn set(&mut self, lane: usize, addr: usize) {
        debug_assert!(lane < WARP_SIZE);
        let fresh = !self.is_active(lane);
        self.mask |= 1 << lane;
        match &mut self.addrs {
            Addrs::Gather { addrs, lo, hi } if fresh => {
                addrs[lane] = addr;
                (*lo, *hi) = ((*lo).min(addr), (*hi).max(addr));
            }
            _ => self.set_reshaping(lane, addr),
        }
    }

    /// [`WarpAccess::set`] where the lane may change the shape or shrink
    /// the span: any lane of a run, an overwritten lane of a gather.
    fn set_reshaping(&mut self, lane: usize, addr: usize) {
        let mut addrs = match self.addrs {
            Addrs::Run { .. } if self.mask == 1 << lane => {
                self.addrs = Addrs::Run {
                    lane0: addr.wrapping_sub(lane),
                };
                return;
            }
            Addrs::Run { lane0 } if lane0 == addr.wrapping_sub(lane) => return,
            Addrs::Run { lane0 } => std::array::from_fn(|l| lane0.wrapping_add(l)),
            Addrs::Gather { addrs, .. } => addrs,
        };
        addrs[lane] = addr;
        self.addrs = Self::gather_of(self.mask, addrs);
    }

    /// A gather over the lanes of (non-empty) `mask`, its span measured.
    fn gather_of(mask: u32, addrs: [usize; WARP_SIZE]) -> Addrs {
        let active = || lanes_in(mask).map(|l| addrs[l]);
        Addrs::Gather {
            addrs,
            lo: active().min().unwrap_or(0),
            hi: active().max().unwrap_or(0),
        }
    }

    /// Build an access from an iterator of `(lane, addr)` pairs.
    pub fn from_lanes(lanes: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut a = Self::empty();
        for (lane, addr) in lanes {
            a.set(lane, addr);
        }
        a
    }

    /// True when lane `lane` is active.
    #[inline]
    pub fn is_active(&self, lane: usize) -> bool {
        self.mask & (1 << lane) != 0
    }

    /// Number of active lanes.
    #[inline]
    pub fn active_lanes(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Iterate active `(lane, addr)` pairs in lane order.
    #[inline]
    pub fn iter_active(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        lanes_in(self.mask).map(move |lane| {
            (
                lane,
                match &self.addrs {
                    Addrs::Run { lane0 } => lane0.wrapping_add(lane),
                    Addrs::Gather { addrs, .. } => addrs[lane],
                },
            )
        })
    }

    /// A non-empty run as `(first lane, last lane, lane0)`.
    #[inline]
    fn as_run(&self) -> Option<(usize, usize, usize)> {
        match self.addrs {
            Addrs::Run { lane0 } if self.mask != 0 => Some((
                self.mask.trailing_zeros() as usize,
                WARP_SIZE - 1 - self.mask.leading_zeros() as usize,
                lane0,
            )),
            _ => None,
        }
    }

    /// A non-empty run whose mask has no hole, as `(first lane, last lane,
    /// first address, last address)`: the shape that moves data by slice.
    #[inline]
    fn as_solid_run(&self) -> Option<(usize, usize, usize, usize)> {
        let (first, last, _) = self.as_run()?;
        let (lo, hi) = self.span()?;
        (self.mask == lane_bits(first, last)).then_some((first, last, lo, hi))
    }

    /// Smallest and largest active word address (`None` when empty): a
    /// run's two ends, a gather's recorded span.
    #[inline]
    fn span(&self) -> Option<(usize, usize)> {
        match self.addrs {
            Addrs::Gather { lo, hi, .. } => Some((lo, hi)),
            Addrs::Run { .. } => self
                .as_run()
                .map(|(first, last, lane0)| (lane0.wrapping_add(first), lane0.wrapping_add(last))),
        }
    }

    /// Distinct memory lines of `line_words` words touched by the active
    /// lanes, in the order the lanes first touch them — the number of
    /// global-memory transactions this access costs on both GT200 (compute
    /// 1.3 coalescing rules for 4-byte words) and Fermi (128-byte cache
    /// lines), and the order the caches see them in.
    #[inline]
    pub fn distinct_lines(&self, line_words: usize) -> LineSet {
        let Some((first, last, lane0)) = self.as_run() else {
            return self.gathered_lines(line_words);
        };
        // Addresses ascend with the lane, so the lines do too; a line
        // inside the span counts only if the mask has a lane on it.
        let mut lines = LineSet::new();
        let (lo, hi) = (lane0.wrapping_add(first), lane0.wrapping_add(last));
        for line in lo / line_words..=hi / line_words {
            let from = (line * line_words).max(lo).wrapping_sub(lane0);
            let to = (line * line_words + line_words - 1)
                .min(hi)
                .wrapping_sub(lane0);
            if self.mask & lane_bits(from, to) != 0 {
                lines.push(line);
            }
        }
        lines
    }

    /// [`WarpAccess::distinct_lines`] by one walk over the active lanes.
    fn gathered_lines(&self, line_words: usize) -> LineSet {
        let Some((lo, hi)) = self.span() else {
            return LineSet::new();
        };
        let first_line = lo / line_words;
        if hi / line_words - first_line >= SEEN_BITS {
            let mut seen = Dedup::new();
            for (_, addr) in self.iter_active() {
                seen.insert(addr / line_words);
            }
            return seen.set;
        }
        // A span this narrow fits a bitmap. Every lane writes its line at
        // the end of the set and only a new line advances the end, so the
        // walk has no branch on the addresses.
        let mut seen = [0u64; SEEN_BITS / 64];
        let mut lines = LineSet::new();
        for (_, addr) in self.iter_active() {
            let line = addr / line_words;
            let at = line - first_line;
            let (word, bit) = (&mut seen[at / 64], 1 << (at % 64));
            lines.lines[lines.n] = line;
            lines.n += usize::from(*word & bit == 0);
            *word |= bit;
        }
        lines
    }

    /// Largest active word address, for bounds checking.
    #[inline]
    pub fn max_addr(&self) -> Option<usize> {
        self.span().map(|(_, hi)| hi)
    }

    /// The first active address, in lane order, that lies outside `bounds`.
    #[inline]
    pub fn first_outside(&self, bounds: Range<usize>) -> Option<usize> {
        let (lo, hi) = self.span()?;
        if bounds.contains(&lo) && bounds.contains(&hi) {
            return None;
        }
        self.iter_active()
            .map(|(_, a)| a)
            .find(|a| !bounds.contains(a))
    }

    /// Serialization factor of this access over `banks` shared-memory
    /// banks: the maximum, over banks, of the number of *distinct*
    /// addresses mapping to that bank (lanes reading one address share a
    /// broadcast), and 1 for an empty access.
    #[inline]
    pub fn bank_conflict_degree(&self, banks: usize) -> u32 {
        if let Some((first, last, _)) = self.as_run() {
            // Distinct consecutive addresses: a bank is shared only by
            // lanes a multiple of `banks` apart.
            if last - first < banks {
                return 1;
            }
            if self.mask == lane_bits(first, last) {
                return 1 + ((last - first) / banks) as u32;
            }
        }
        let mut addrs = Dedup::new();
        let mut hit_banks = Dedup::new();
        let mut per_bank = [0u32; WARP_SIZE];
        let mut degree = 1;
        for (_, addr) in self.iter_active() {
            if addrs.insert(addr).1 {
                let (bank, _) = hit_banks.insert(addr % banks);
                per_bank[bank] += 1;
                degree = degree.max(per_bank[bank]);
            }
        }
        degree
    }

    /// Read every active lane's word out of `mem` (inactive lanes read 0).
    ///
    /// # Panics
    /// Panics when an active address is outside `mem`.
    #[inline]
    pub fn load_from(&self, mem: &[u32]) -> [u32; WARP_SIZE] {
        let mut out = [0u32; WARP_SIZE];
        if let Some((first, last, lo, hi)) = self.as_solid_run() {
            out[first..=last].copy_from_slice(&mem[lo..=hi]);
        } else {
            for (lane, addr) in self.iter_active() {
                out[lane] = mem[addr];
            }
        }
        out
    }

    /// Write every active lane's value into `mem`, in lane order (of two
    /// lanes storing to one address the higher lane wins).
    ///
    /// # Panics
    /// Panics when an active address is outside `mem`.
    #[inline]
    pub fn store_to(&self, mem: &mut [u32], values: &[u32; WARP_SIZE]) {
        if let Some((first, last, lo, hi)) = self.as_solid_run() {
            mem[lo..=hi].copy_from_slice(&values[first..=last]);
        } else {
            for (lane, addr) in self.iter_active() {
                mem[addr] = values[lane];
            }
        }
    }
}

/// Widest span of lines a gather dedupes with a bitmap (wider: [`Dedup`]).
const SEEN_BITS: usize = 512;

/// Up to 32 distinct memory lines touched by one warp access, in
/// first-appearance order.
#[derive(Debug, Clone)]
pub struct LineSet {
    lines: [usize; WARP_SIZE],
    n: usize,
}

impl LineSet {
    #[inline]
    fn new() -> Self {
        Self {
            lines: [0; WARP_SIZE],
            n: 0,
        }
    }

    /// Number of distinct lines (= transactions).
    #[inline]
    pub fn count(&self) -> usize {
        self.n
    }

    /// The line indices.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.lines[..self.n].iter().copied()
    }

    #[inline]
    fn push(&mut self, line: usize) -> usize {
        self.lines[self.n] = line;
        self.n += 1;
        self.n - 1
    }
}

/// Insertion-ordered set of at most [`WARP_SIZE`] keys: a [`LineSet`] plus
/// an open-addressed index over it (never more than half full).
struct Dedup {
    set: LineSet,
    /// `0` = free, else 1 + position in `set`.
    slots: [u8; 2 * WARP_SIZE],
}

impl Dedup {
    #[inline]
    fn new() -> Self {
        Self {
            set: LineSet::new(),
            slots: [0; 2 * WARP_SIZE],
        }
    }

    /// Position of `key` in the set, and whether this call added it.
    #[inline]
    fn insert(&mut self, key: usize) -> (usize, bool) {
        // Neighbouring lanes mostly share a line: try the newest key first.
        if self.set.n > 0 && self.set.lines[self.set.n - 1] == key {
            return (self.set.n - 1, false);
        }
        // Fibonacci hashing down to the 6 slot-index bits.
        let mut slot = key.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as usize) >> (usize::BITS - 6);
        loop {
            match self.slots[slot] {
                0 => {
                    let at = self.set.push(key);
                    self.slots[slot] = at as u8 + 1;
                    return (at, true);
                }
                taken if self.set.lines[taken as usize - 1] == key => {
                    return (taken as usize - 1, false)
                }
                _ => slot = (slot + 1) % self.slots.len(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_access_is_one_line_when_aligned() {
        let a = WarpAccess::contiguous(64); // word 64 = byte 256, line-aligned
        assert_eq!(a.active_lanes(), 32);
        assert_eq!(a.distinct_lines(32).count(), 1);
    }

    #[test]
    fn misaligned_contiguous_access_is_two_lines() {
        let a = WarpAccess::contiguous(16);
        assert_eq!(a.distinct_lines(32).count(), 2);
    }

    #[test]
    fn strided_access_is_many_lines() {
        let a = WarpAccess::from_lanes((0..32).map(|l| (l, l * 32)));
        assert_eq!(a.distinct_lines(32).count(), 32);
    }

    #[test]
    fn same_address_broadcast_is_one_line() {
        let a = WarpAccess::from_lanes((0..32).map(|l| (l, 7)));
        assert_eq!(a.distinct_lines(32).count(), 1);
    }

    #[test]
    fn empty_access() {
        let a = WarpAccess::empty();
        assert_eq!(a.active_lanes(), 0);
        assert_eq!(a.distinct_lines(32).count(), 0);
        assert_eq!(a.max_addr(), None);
        assert_eq!(a.bank_conflict_degree(32), 1);
    }

    #[test]
    fn partial_mask() {
        let mut a = WarpAccess::empty();
        a.set(0, 0);
        a.set(5, 100);
        assert!(a.is_active(5));
        assert!(!a.is_active(1));
        assert_eq!(a.active_lanes(), 2);
        assert_eq!(a.max_addr(), Some(100));
        assert_eq!(a.distinct_lines(32).count(), 2);
    }

    fn lanes_of(a: &WarpAccess) -> Vec<(usize, usize)> {
        a.iter_active().collect()
    }

    #[test]
    fn run_places_lane_l_at_base_plus_offset() {
        let a = WarpAccess::run(3, 4, 100);
        assert_eq!(lanes_of(&a), [(3, 100), (4, 101), (5, 102), (6, 103)]);
        assert!(matches!(a.addrs, Addrs::Run { .. }));
        // Low lanes inactive and base below the first lane: lane0 wraps.
        let low = WarpAccess::run(30, 2, 1);
        assert_eq!(lanes_of(&low), [(30, 1), (31, 2)]);
        assert_eq!(low.max_addr(), Some(2));
        assert_eq!(WarpAccess::run(7, 0, 9).active_lanes(), 0);
    }

    #[test]
    fn set_keeps_a_run_until_a_lane_breaks_it() {
        let mut a = WarpAccess::empty();
        a.set(9, 50);
        a.set(4, 45);
        a.set(9, 50); // same lane, same address: still a run
        assert!(matches!(a.addrs, Addrs::Run { .. }));
        assert_eq!(lanes_of(&a), [(4, 45), (9, 50)]);
        a.set(4, 46); // overwritten with an address off the run
        assert!(matches!(a.addrs, Addrs::Gather { .. }));
        assert_eq!(lanes_of(&a), [(4, 46), (9, 50)]);
        a.set(10, 51);
        assert!(matches!(a.addrs, Addrs::Gather { .. }), "never turns back");
    }

    #[test]
    fn holes_in_a_run_skip_untouched_lines() {
        // Lanes 0 and 31 only: the two segments between them are untouched.
        let a = WarpAccess::run_masked(1 | 1 << 31, 8);
        let lines: Vec<usize> = a.distinct_lines(8).iter().collect();
        assert_eq!(lines, [1, 4]);
    }

    #[test]
    fn gather_lines_come_in_first_appearance_order() {
        let a = WarpAccess::from_lanes([(0, 90), (1, 10), (2, 95), (3, 11), (4, 40)]);
        let lines: Vec<usize> = a.distinct_lines(8).iter().collect();
        assert_eq!(lines, [11, 1, 5]);
    }

    #[test]
    fn bank_degree_counts_distinct_addresses_not_lanes() {
        // One bank, addresses A, A, B in any order: two distinct addresses.
        for lanes in [[0, 0, 32], [32, 0, 0], [0, 32, 0]] {
            let a = WarpAccess::from_lanes(lanes.into_iter().enumerate());
            assert_eq!(a.bank_conflict_degree(32), 2, "{lanes:?}");
        }
    }

    #[test]
    fn bank_degree_of_runs() {
        assert_eq!(WarpAccess::contiguous(5).bank_conflict_degree(32), 1);
        assert_eq!(WarpAccess::contiguous(5).bank_conflict_degree(16), 2);
        assert_eq!(WarpAccess::run(0, 17, 0).bank_conflict_degree(16), 2);
        assert_eq!(WarpAccess::run(0, 16, 3).bank_conflict_degree(16), 1);
        // Holes, span wider than the banks: lanes 16 apart share a bank.
        let apart = WarpAccess::run_masked(0x0100_00ff, 0);
        assert_eq!(apart.bank_conflict_degree(16), 1);
        let pair = WarpAccess::run_masked(0x0001_00ff, 0);
        assert_eq!(pair.bank_conflict_degree(16), 2);
    }

    #[test]
    fn loads_zero_inactive_lanes_and_stores_in_lane_order() {
        let mem: Vec<u32> = (100..164).collect();
        let run = WarpAccess::run(2, 3, 10);
        let got = run.load_from(&mem);
        assert_eq!(got[1..6], [0, 110, 111, 112, 0]);
        let mut mem = vec![0u32; 8];
        let dup = WarpAccess::from_lanes([(0, 3), (1, 5), (2, 3)]);
        let mut vals = [0u32; WARP_SIZE];
        vals[..3].copy_from_slice(&[7, 8, 9]);
        dup.store_to(&mut mem, &vals);
        assert_eq!(mem, [0, 0, 0, 9, 0, 8, 0, 0]);
    }

    #[test]
    fn first_outside_reports_the_first_offending_lane() {
        let a = WarpAccess::run(0, 8, 96);
        assert_eq!(a.first_outside(96..104), None);
        assert_eq!(a.first_outside(96..100), Some(100));
        assert_eq!(a.first_outside(98..200), Some(96));
        let g = WarpAccess::from_lanes([(0, 50), (1, 500), (2, 5)]);
        assert_eq!(g.first_outside(10..100), Some(500));
    }
}
