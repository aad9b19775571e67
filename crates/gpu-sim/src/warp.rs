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
//! banks counts its degree, lane by lane like a gather. A **gather** is an
//! address array under a mask, its span measured once when it is built and
//! the rest analysed by one walk over the active lanes. The constructor
//! picks the shape — a gather whose addresses happen to be consecutive
//! stays a gather — and every analysis lives in this module, where both
//! shapes give the same answer for the same lane addresses: lines come out
//! in first-appearance (lane) order, which the LRU caches downstream depend
//! on, and the bank degree is a property of the address set alone.

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
    /// smallest and largest active address (of no lane: `usize::MAX`, 0).
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

    /// The lanes of `mask` touching `addrs[lane]` each, in any pattern.
    /// Entries of lanes outside the mask are never read as addresses and
    /// may hold anything. The span is measured here, in one pass with no
    /// branch on the mask or the addresses.
    #[inline]
    pub fn gather(mask: u32, addrs: [usize; WARP_SIZE]) -> Self {
        let (mut lo, mut hi) = (usize::MAX, 0);
        for (lane, &addr) in addrs.iter().enumerate() {
            // All-ones for an active lane: an inactive one offers the
            // identity of each fold.
            let active = ((mask >> lane) as usize & 1).wrapping_neg();
            lo = lo.min(addr | !active);
            hi = hi.max(addr & active);
        }
        Self {
            mask,
            addrs: Addrs::Gather { addrs, lo, hi },
        }
    }

    /// Build a gather from an iterator of `(lane, addr)` pairs; a later
    /// pair for the same lane replaces the earlier one.
    pub fn from_lanes(lanes: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut mask = 0;
        let mut addrs = [0; WARP_SIZE];
        for (lane, addr) in lanes {
            debug_assert!(lane < WARP_SIZE);
            mask |= 1 << lane;
            addrs[lane] = addr;
        }
        Self::gather(mask, addrs)
    }

    /// Number of active lanes.
    #[inline]
    pub fn active_lanes(&self) -> u32 {
        self.mask.count_ones()
    }

    /// The word address lane `lane` touches, if it is active.
    #[inline]
    fn addr_of(&self, lane: usize) -> usize {
        match &self.addrs {
            Addrs::Run { lane0 } => lane0.wrapping_add(lane),
            Addrs::Gather { addrs, .. } => addrs[lane],
        }
    }

    /// Iterate active `(lane, addr)` pairs in lane order.
    #[inline]
    pub fn iter_active(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        lanes_in(self.mask).map(move |lane| (lane, self.addr_of(lane)))
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
    pub(crate) fn as_solid_run(&self) -> Option<(usize, usize, usize, usize)> {
        let (first, last, _) = self.as_run()?;
        let (lo, hi) = self.span()?;
        (self.mask == lane_bits(first, last)).then_some((first, last, lo, hi))
    }

    /// Smallest and largest active word address (`None` when empty): a
    /// run's two ends, a gather's recorded span.
    #[inline]
    fn span(&self) -> Option<(usize, usize)> {
        match self.addrs {
            Addrs::Gather { lo, hi, .. } => (self.mask != 0).then_some((lo, hi)),
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
    ///
    /// # Panics
    /// Panics unless `line_words` is a power of two, as every line and
    /// segment of the modelled hardware is: an address finds its line by a
    /// shift, not a division per lane.
    #[inline]
    pub fn distinct_lines(&self, line_words: usize) -> LineSet<'_> {
        assert!(line_words.is_power_of_two(), "line of {line_words} words");
        let shift = line_words.trailing_zeros();
        let mut first = 0;
        if let Some((first_lane, last_lane, lane0)) = self.as_run() {
            // Addresses ascend with the lane, so the lines do too; a line
            // inside the span counts only if the mask has a lane on it.
            let lo = lane0.wrapping_add(first_lane);
            let hi = lane0.wrapping_add(last_lane);
            for line in lo >> shift..=hi >> shift {
                let from = (line << shift).max(lo).wrapping_sub(lane0);
                let to = ((line << shift) + line_words - 1)
                    .min(hi)
                    .wrapping_sub(lane0);
                let on_line = self.mask & lane_bits(from, to);
                first |= on_line & on_line.wrapping_neg();
            }
        } else if let Some((lo, hi)) = self.span() {
            first = self.first_touches(shift, lo >> shift, hi >> shift);
        }
        LineSet {
            access: self,
            shift,
            first,
        }
    }

    /// The lanes of a gather that touch a line of `1 << shift` words before
    /// any lower lane does. The lines span `first_line ..= last_line`: one
    /// bitmap word when that is narrow enough (it then stays in a register,
    /// where neighbouring lanes on one line do not wait on each other's
    /// stores), eight for the width of a profile gather, a hash set beyond.
    fn first_touches(&self, shift: u32, first_line: usize, last_line: usize) -> u32 {
        match last_line - first_line {
            0..64 => self.first_touches_in::<1>(shift, first_line),
            64..SEEN_BITS => self.first_touches_in::<{ SEEN_BITS / 64 }>(shift, first_line),
            _ => {
                let mut seen = Dedup::new();
                let touch = |(lane, addr)| u32::from(seen.insert(addr >> shift).1) << lane;
                self.iter_active()
                    .map(touch)
                    .fold(0, |first, bit| first | bit)
            }
        }
    }

    /// [`WarpAccess::first_touches`] over a bitmap of `64 * WORDS` lines
    /// from `first_line`: one walk over the active lanes with no branch on
    /// the addresses.
    #[inline]
    fn first_touches_in<const WORDS: usize>(&self, shift: u32, first_line: usize) -> u32 {
        let mut seen = [0u64; WORDS];
        let mut first = 0;
        for (lane, addr) in self.iter_active() {
            let at = (addr >> shift) - first_line;
            let (word, bit) = (&mut seen[at / 64], 1 << (at % 64));
            first |= u32::from(*word & bit == 0) << lane;
            *word |= bit;
        }
        first
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

/// The distinct memory lines one warp access touches, in first-appearance
/// order — which is lane order, so the set is the mask of the lanes that
/// touch a line before any lower lane does.
#[derive(Debug, Clone, Copy)]
pub struct LineSet<'a> {
    access: &'a WarpAccess,
    /// A line is `1 << shift` words.
    shift: u32,
    first: u32,
}

impl LineSet<'_> {
    /// Number of distinct lines (= transactions).
    #[inline]
    pub fn count(&self) -> usize {
        self.first.count_ones() as usize
    }

    /// The line indices.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        lanes_in(self.first).map(|lane| self.access.addr_of(lane) >> self.shift)
    }
}

/// Insertion-ordered set of at most [`WARP_SIZE`] keys with an
/// open-addressed index over them (never more than half full).
struct Dedup {
    keys: [usize; WARP_SIZE],
    n: usize,
    /// `0` = free, else 1 + position in `keys`.
    slots: [u8; 2 * WARP_SIZE],
}

impl Dedup {
    #[inline]
    fn new() -> Self {
        Self {
            keys: [0; WARP_SIZE],
            n: 0,
            slots: [0; 2 * WARP_SIZE],
        }
    }

    /// Position of `key` in the set, and whether this call added it.
    #[inline]
    fn insert(&mut self, key: usize) -> (usize, bool) {
        // Neighbouring lanes mostly share a line: try the newest key first.
        if self.n > 0 && self.keys[self.n - 1] == key {
            return (self.n - 1, false);
        }
        // Fibonacci hashing down to the 6 slot-index bits.
        let mut slot = key.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as usize) >> (usize::BITS - 6);
        loop {
            match self.slots[slot] {
                0 => {
                    self.keys[self.n] = key;
                    self.n += 1;
                    self.slots[slot] = self.n as u8;
                    return (self.n - 1, true);
                }
                taken if self.keys[taken as usize - 1] == key => {
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

    fn lanes_of(a: &WarpAccess) -> Vec<(usize, usize)> {
        a.iter_active().collect()
    }

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
        let a = WarpAccess::from_lanes([(0, 0), (5, 100)]);
        assert_eq!(lanes_of(&a), [(0, 0), (5, 100)]);
        assert_eq!(a.active_lanes(), 2);
        assert_eq!(a.max_addr(), Some(100));
        assert_eq!(a.distinct_lines(32).count(), 2);
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
    fn gather_ignores_what_inactive_lanes_hold() {
        let mut addrs = [usize::MAX; WARP_SIZE];
        (addrs[4], addrs[9]) = (46, 50);
        let a = WarpAccess::gather(1 << 4 | 1 << 9, addrs);
        assert_eq!(lanes_of(&a), [(4, 46), (9, 50)]);
        assert_eq!(a.max_addr(), Some(50));
        assert_eq!(a.first_outside(47..60), Some(46));
        let none = WarpAccess::gather(0, addrs);
        assert_eq!(none.max_addr(), None);
        assert_eq!(none.first_outside(0..1), None);
        assert_eq!(none.distinct_lines(8).count(), 0);
        // A later pair for a lane replaces the earlier one.
        let twice = WarpAccess::from_lanes([(4, 45), (9, 50), (4, 46)]);
        assert_eq!(lanes_of(&twice), lanes_of(&a));
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
