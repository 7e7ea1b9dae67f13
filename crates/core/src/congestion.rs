//! Memory access congestion — the paper's central cost metric.
//!
//! For a warp of `w` threads issuing one memory request each, the
//! **congestion** is the maximum, over the `w` banks, of the number of
//! *unique* addresses requested in that bank (paper §II). Two rules from
//! the DMM's CRCW semantics matter:
//!
//! 1. requests to the **same address are merged** and count once (so a
//!    full-warp broadcast has congestion 1);
//! 2. distinct addresses in the same bank serialize (congestion `c` costs
//!    `c` pipeline slots).
//!
//! Congestion of a non-empty access is therefore in `1..=w`.

use serde::{Deserialize, Serialize};

/// Bank of a flat address on a machine with `width` banks.
///
/// # Panics
/// Panics if `width == 0` — explicitly, with the same message as every
/// other congestion entry point (not as an incidental division-by-zero).
#[inline]
#[must_use]
pub fn bank_of(width: usize, address: u64) -> u32 {
    assert!(width > 0, "machine width must be positive");
    (address % width as u64) as u32
}

/// Per-bank unique-request loads plus the merged request list of one warp
/// access.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankLoads {
    width: usize,
    loads: Vec<u32>,
    unique_requests: usize,
}

impl BankLoads {
    /// Analyze one warp access given the flat physical addresses requested
    /// by its threads. Duplicate addresses are merged (CRCW).
    ///
    /// # Panics
    /// Panics if `width == 0`.
    #[must_use]
    pub fn analyze(width: usize, addresses: &[u64]) -> Self {
        assert!(width > 0, "machine width must be positive");
        let mut sorted: Vec<u64> = addresses.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut loads = vec![0u32; width];
        for &a in &sorted {
            loads[(a % width as u64) as usize] += 1;
        }
        Self {
            width,
            unique_requests: sorted.len(),
            loads,
        }
    }

    /// [`BankLoads::analyze`] through the bit-parallel kernel: for
    /// `width ≤ 64` and at most 64 lanes the per-bank loads are counted in
    /// packed SWAR byte counters and expanded at the end, skipping the
    /// sort entirely; everything else falls back to [`BankLoads::analyze`].
    /// Results are bit-identical to `analyze` on every input — the unit
    /// and conformance tests pin this.
    ///
    /// # Panics
    /// Panics if `width == 0`.
    #[must_use]
    pub fn analyze_fast(width: usize, addresses: &[u64]) -> Self {
        assert!(width > 0, "machine width must be positive");
        if width > SWAR_BANKS || addresses.len() > SWAR_LANES {
            return Self::analyze(width, addresses);
        }
        let mut swar = SwarCounters::new(width);
        let mut uniq = [0u64; SWAR_LANES];
        let mut n = 0usize;
        'warp: for &a in addresses {
            for &k in &uniq[..n] {
                if k == a {
                    continue 'warp;
                }
            }
            uniq[n] = a;
            n += 1;
            swar.count(a);
        }
        Self {
            width,
            unique_requests: n,
            loads: (0..width as u32).map(|b| swar.load(b)).collect(),
        }
    }

    /// The congestion: maximum unique-request count over banks (0 for an
    /// empty access).
    #[must_use]
    pub fn congestion(&self) -> u32 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// Unique-request count of a specific bank.
    ///
    /// # Panics
    /// Panics if `bank ≥ width`.
    #[must_use]
    pub fn load(&self, bank: u32) -> u32 {
        self.loads[bank as usize]
    }

    /// All per-bank loads.
    #[must_use]
    pub fn loads(&self) -> &[u32] {
        &self.loads
    }

    /// Number of distinct addresses after CRCW merging.
    #[must_use]
    pub fn unique_requests(&self) -> usize {
        self.unique_requests
    }

    /// Number of banks receiving at least one request.
    #[must_use]
    pub fn busy_banks(&self) -> usize {
        self.loads.iter().filter(|&&l| l > 0).count()
    }

    /// Whether the access is conflict-free (congestion ≤ 1).
    #[must_use]
    pub fn is_conflict_free(&self) -> bool {
        self.congestion() <= 1
    }

    /// Machine width used for the analysis.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }
}

/// Bank capacity of the bit-parallel fast path: 64 packed `u8` counters.
const SWAR_BANKS: usize = 64;

/// Lane capacity of the bit-parallel fast path. At most 64 unique
/// addresses are counted, so every packed counter stays within `u8`.
const SWAR_LANES: usize = 64;

/// Packed per-bank unique-request counters: 8 `u8` counters per `u64`
/// word, `[u64; 8]` covering the 64 banks of the SWAR fast path. An
/// increment is one shifted add into the bank's byte; the running maximum
/// re-extracts the just-incremented byte with the same shift, so the
/// whole update is branch-free.
#[derive(Debug, Clone)]
struct SwarCounters {
    cells: [u64; 8],
    max: u64,
    wd: u64,
    /// Bank mask, valid only when `pow2`.
    mask: u64,
    pow2: bool,
}

impl SwarCounters {
    #[inline]
    fn new(width: usize) -> Self {
        debug_assert!((1..=SWAR_BANKS).contains(&width));
        let wd = width as u64;
        Self {
            cells: [0u64; 8],
            max: 0,
            wd,
            mask: wd - 1,
            pow2: wd.is_power_of_two(),
        }
    }

    /// Bank of `a` — the power-of-two test is hoisted into `new` so every
    /// width the paper evaluates replaces the `u64` division with an AND.
    #[inline]
    fn bank_of(&self, a: u64) -> u32 {
        if self.pow2 {
            (a & self.mask) as u32
        } else {
            (a % self.wd) as u32
        }
    }

    /// Count one unique request to `bank`.
    #[inline]
    fn bump(&mut self, bank: u32) {
        debug_assert!((bank as usize) < SWAR_BANKS);
        let shift = (bank & 7) * 8;
        let cell = &mut self.cells[(bank >> 3) as usize];
        *cell += 1u64 << shift;
        self.max = self.max.max((*cell >> shift) & 0xFF);
    }

    /// Count one unique request at address `a`.
    #[inline]
    fn count(&mut self, a: u64) {
        self.bump(self.bank_of(a));
    }

    /// Unique-request count of `bank`.
    #[inline]
    fn load(&self, bank: u32) -> u32 {
        ((self.cells[(bank >> 3) as usize] >> ((bank & 7) * 8)) & 0xFF) as u32
    }

    /// The running maximum over all banks.
    #[inline]
    fn max(&self) -> u32 {
        self.max as u32
    }
}

/// The bit-parallel congestion kernel for `width ≤ 64` and at most 64
/// lanes.
///
/// CRCW merging is a branch-light linear scan over the unique addresses
/// seen so far (keyed `u64` comparisons over a stack array — for warp
/// sizes the comparison loop vectorizes and beats a hash probe chain's
/// multiply + dependent load + branches), and per-bank counts live in
/// packed SWAR byte counters ([`SwarCounters`]) instead of a 128-entry
/// `u8` array with a `u128` occupancy bitmask. `O(n²)` comparisons in the
/// worst case, but with `n ≤ 64` the constant is far below the branchy
/// alternatives, there is no allocation, and the input is untouched.
#[inline]
fn congestion_swar(width: usize, addresses: &[u64]) -> u32 {
    debug_assert!(width <= SWAR_BANKS && addresses.len() <= SWAR_LANES);
    let mut swar = SwarCounters::new(width);
    let mut uniq = [0u64; SWAR_LANES];
    let mut n = 0usize;
    'warp: for &a in addresses {
        for &k in &uniq[..n] {
            if k == a {
                continue 'warp; // CRCW merge: duplicate address counts once
            }
        }
        uniq[n] = a;
        n += 1;
        swar.count(a);
    }
    swar.max()
}

/// Dedup + count in fixed stack buffers for the 65..=128 band, tracking
/// bank occupancy in an integer bitmask.
///
/// CRCW merging is done without sorting: each address is inserted into a
/// `TABLE`-slot open-addressing set on the stack (Fibonacci hash, linear
/// probing) and contributes only if it was not already present. With
/// `TABLE ≥ 2 · len` the expected probe count per insert is ~1, so the
/// whole kernel is `O(n)` with no allocation and the input untouched —
/// unlike the sort-based [`BankLoads::analyze`]. Slot occupancy lives in
/// a packed bitmask (`used`), bank occupancy in `occupied`.
#[inline]
fn congestion_fixed<const TABLE: usize>(width: usize, addresses: &[u64]) -> u32 {
    const {
        assert!(TABLE.is_power_of_two() && TABLE <= 256);
    }
    debug_assert!(width <= 128 && 2 * addresses.len() <= TABLE);
    let wd = width as u64;
    let pow2 = wd.is_power_of_two();
    let m = wd - 1; // valid bank mask only when `pow2`
    let slot_shift = 64 - TABLE.trailing_zeros();
    let mut keys = [0u64; TABLE];
    let mut used = [0u64; 4]; // TABLE ≤ 256 slot-occupancy bits
    let mut occupied: u128 = 0;
    let mut counts = [0u8; 128];
    let mut max = 0u8;
    'warp: for &a in addresses {
        let mut slot = (a.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> slot_shift) as usize;
        loop {
            let bit = 1u64 << (slot & 63);
            if used[slot >> 6] & bit == 0 {
                used[slot >> 6] |= bit;
                keys[slot] = a;
                break; // first occurrence
            }
            if keys[slot] == a {
                continue 'warp; // CRCW merge: duplicate address counts once
            }
            slot = (slot + 1) & (TABLE - 1);
        }
        let bank = if pow2 {
            (a & m) as usize
        } else {
            (a % wd) as usize
        };
        let bit = 1u128 << bank;
        if occupied & bit == 0 {
            occupied |= bit;
            counts[bank] = 1;
            max = max.max(1);
        } else {
            counts[bank] += 1;
            max = max.max(counts[bank]);
        }
    }
    u32::from(max)
}

/// The allocation-free fast paths, wired in exactly once: the SWAR kernel
/// for `width ≤ 64` with ≤ 64 lanes, the stack hash set for the 65..=128
/// band, `None` when only a heap path can serve. Both the free
/// [`congestion`] and [`CongestionScratch::congestion`] dispatch through
/// here (previously each carried its own copy of the if-chain).
#[inline]
fn congestion_small(width: usize, addresses: &[u64]) -> Option<u32> {
    if width <= SWAR_BANKS && addresses.len() <= SWAR_LANES {
        Some(congestion_swar(width, addresses))
    } else if width <= 128 && addresses.len() <= 128 {
        Some(congestion_fixed::<256>(width, addresses))
    } else {
        None
    }
}

/// Reusable scratch for the congestion kernel: a sort/dedup buffer plus
/// per-bank unique-request counts.
///
/// [`BankLoads::analyze`] allocates two fresh `Vec`s per warp; in a
/// Monte-Carlo sweep that is millions of allocations doing no useful work.
/// Holding one `CongestionScratch` per worker amortizes the buffers to a
/// single high-water-mark allocation, and warps with `width ≤ 128` bypass
/// the heap entirely — `width ≤ 64` through the bit-parallel SWAR kernel,
/// 65..=128 through a fixed stack hash set.
///
/// All paths compute the exact same metric as [`BankLoads::analyze`]
/// (sort, CRCW-merge duplicates, max unique-per-bank count) — the unit,
/// property, and conformance tests assert bit-identical results.
#[derive(Debug, Clone, Default)]
pub struct CongestionScratch {
    sorted: Vec<u64>,
    counts: Vec<u32>,
}

impl CongestionScratch {
    /// An empty scratch (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Congestion of one warp access — identical to
    /// `BankLoads::analyze(width, addresses).congestion()` but without
    /// per-call allocation.
    ///
    /// # Panics
    /// Panics if `width == 0`.
    #[must_use]
    pub fn congestion(&mut self, width: usize, addresses: &[u64]) -> u32 {
        assert!(width > 0, "machine width must be positive");
        congestion_small(width, addresses)
            .unwrap_or_else(|| self.congestion_general(width, addresses))
    }

    /// Heap-buffer path for wide machines or oversized address lists; the
    /// buffers are reused across calls.
    fn congestion_general(&mut self, width: usize, addresses: &[u64]) -> u32 {
        self.sorted.clear();
        self.sorted.extend_from_slice(addresses);
        self.sorted.sort_unstable();
        self.sorted.dedup();
        self.counts.clear();
        self.counts.resize(width, 0);
        let mut max = 0u32;
        for &a in &self.sorted {
            let bank = (a % width as u64) as usize;
            self.counts[bank] += 1;
            max = max.max(self.counts[bank]);
        }
        max
    }
}

/// One warp's congestion accumulated bit-parallel: a `u64` bitmask per
/// bank, one bit per *tag*, where the caller guarantees that two lanes
/// refer to the same address **iff** they share the `(tag, bank)` pair.
/// Congestion is then the maximum `popcount` over the per-bank masks —
/// dedup and counting collapse into a single `OR` per lane.
///
/// The permute-shift matrix mapping fits this exactly: lane `(i, j)`
/// lands in bank `rot_i(j)` at address `i·w + rot_i(j)`, so within one
/// bank the row index `i` (< `w` ≤ 64) identifies the address — pass
/// `tag = i`. Any injective mapping with a ≤ 64-valued per-bank
/// discriminator works the same way.
///
/// Lives entirely on the stack (512 B of masks), so there is nothing to
/// reuse across warps — build one per warp with [`CompactCongestion::new`].
#[derive(Debug, Clone)]
pub struct CompactCongestion {
    masks: [u64; SWAR_BANKS],
    width: u32,
}

impl CompactCongestion {
    /// Start a warp accumulation for a `width`-bank machine.
    ///
    /// # Panics
    /// Panics if `width == 0` or `width > 64` (the compact path exists
    /// only for the bit-parallel bank range).
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "machine width must be positive");
        assert!(
            width <= SWAR_BANKS,
            "compact path requires width ≤ {SWAR_BANKS}, got {width}"
        );
        Self {
            masks: [0; SWAR_BANKS],
            width: width as u32,
        }
    }

    /// Count one lane: `bank` is the bank it lands in and `tag` (< 64)
    /// discriminates addresses within that bank. Branch-free — one `OR`;
    /// a duplicate `(tag, bank)` pair sets an already-set bit.
    ///
    /// Out-of-range inputs are a contract violation (debug-asserted);
    /// in release builds they wrap into the valid range rather than
    /// reading out of bounds.
    #[inline]
    pub fn lane(&mut self, tag: u32, bank: u32) {
        debug_assert!(tag < SWAR_BANKS as u32, "tag {tag} out of range");
        debug_assert!(bank < self.width, "bank {bank} out of range");
        self.masks[(bank & 63) as usize] |= 1u64 << (tag & 63);
    }

    /// The congestion of the lanes seen so far (0 if none).
    #[inline]
    #[must_use]
    pub fn finish(&self) -> u32 {
        self.masks[..self.width as usize]
            .iter()
            .map(|m| m.count_ones())
            .max()
            .unwrap_or(0)
    }
}

/// Tag words per bank of [`WideCompactCongestion`].
const WIDE_WORDS: usize = 4;

/// [`CompactCongestion`] for machines of up to 256 banks: four `u64` tag
/// words per bank (256 tags), so recording a lane is still one `OR`
/// (`masks[tag >> 6][bank] |= 1 << (tag & 63)`) and congestion is the
/// maximum over the first `width` banks of the sum of the four popcounts.
///
/// The `(tag, bank)` contract is the same: two lanes refer to the same
/// address **iff** they share the pair. The permute-shift matrix mapping
/// meets it with `tag = i` for every `w ≤ 256`.
///
/// The masks (8 KB of stack) are stored word-major (`[word][bank]`), so
/// the final reduction runs across banks and vectorizes. Build one per
/// warp with [`WideCompactCongestion::new`]. It is a separate type rather
/// than a wider [`CompactCongestion`] so the `w ≤ 64` hot loop keeps its
/// single-word masks.
#[derive(Debug, Clone)]
pub struct WideCompactCongestion {
    masks: [[u64; Self::MAX_WIDTH]; WIDE_WORDS],
    width: u32,
}

impl WideCompactCongestion {
    /// Widest machine (and largest tag range) the kernel serves.
    pub const MAX_WIDTH: usize = 64 * WIDE_WORDS;

    /// Start a warp accumulation for a `width`-bank machine.
    ///
    /// # Panics
    /// Panics if `width == 0` or `width > 256`.
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "machine width must be positive");
        assert!(
            width <= Self::MAX_WIDTH,
            "wide compact path requires width ≤ {}, got {width}",
            Self::MAX_WIDTH
        );
        Self {
            masks: [[0; Self::MAX_WIDTH]; WIDE_WORDS],
            width: width as u32,
        }
    }

    /// Count one lane: `bank` is the bank it lands in and `tag` (< 256)
    /// discriminates addresses within that bank. Branch-free — one `OR`;
    /// a duplicate `(tag, bank)` pair sets an already-set bit.
    ///
    /// Out-of-range inputs are a contract violation (debug-asserted);
    /// in release builds they wrap into the valid range rather than
    /// reading out of bounds.
    #[inline]
    pub fn lane(&mut self, tag: u32, bank: u32) {
        debug_assert!((tag as usize) < Self::MAX_WIDTH, "tag {tag} out of range");
        debug_assert!(bank < self.width, "bank {bank} out of range");
        self.masks[(tag >> 6) as usize % WIDE_WORDS][bank as usize % Self::MAX_WIDTH] |=
            1u64 << (tag & 63);
    }

    /// The congestion of the lanes seen so far (0 if none).
    #[inline]
    #[must_use]
    pub fn finish(&self) -> u32 {
        // `min` proves the bound to the optimizer: no bounds checks, so
        // the loop vectorizes.
        let w = (self.width as usize).min(Self::MAX_WIDTH);
        (0..w)
            .map(|bank| {
                self.masks
                    .iter()
                    .map(|words| words[bank].count_ones())
                    .sum::<u32>()
            })
            .max()
            .unwrap_or(0)
    }
}

/// Congestion of one warp access (stack/scratch-free convenience; takes
/// the same fast paths as [`CongestionScratch::congestion`]).
///
/// # Panics
/// Panics if `width == 0`. The check is hoisted above the path dispatch
/// so every input size hits the same explicit contract — previously the
/// 65..=128-address fast path would fall into an incidental
/// division-by-zero instead.
#[must_use]
pub fn congestion(width: usize, addresses: &[u64]) -> u32 {
    assert!(width > 0, "machine width must be positive");
    congestion_small(width, addresses)
        .unwrap_or_else(|| BankLoads::analyze(width, addresses).congestion())
}

/// Whether a warp access is conflict-free.
///
/// # Panics
/// Panics if `width == 0` (see [`congestion`]).
#[must_use]
pub fn is_conflict_free(width: usize, addresses: &[u64]) -> bool {
    congestion(width, addresses) <= 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_of_wraps() {
        assert_eq!(bank_of(4, 0), 0);
        assert_eq!(bank_of(4, 5), 1);
        assert_eq!(bank_of(4, 15), 3);
        assert_eq!(bank_of(32, 1024), 0);
    }

    #[test]
    fn empty_access_is_zero() {
        let b = BankLoads::analyze(8, &[]);
        assert_eq!(b.congestion(), 0);
        assert_eq!(b.unique_requests(), 0);
        assert_eq!(b.busy_banks(), 0);
        assert!(b.is_conflict_free());
    }

    /// Paper Figure 2 (1): requests to distinct banks → congestion 1.
    #[test]
    fn figure2_case1_distinct_banks() {
        // w = 4; addresses 0, 5, 10, 15 are in banks 0, 1, 2, 3.
        let b = BankLoads::analyze(4, &[0, 5, 10, 15]);
        assert_eq!(b.congestion(), 1);
        assert!(b.is_conflict_free());
        assert_eq!(b.busy_banks(), 4);
    }

    /// Paper Figure 2 (2): all requests to the same bank → congestion w.
    #[test]
    fn figure2_case2_same_bank() {
        let b = BankLoads::analyze(4, &[0, 4, 8, 12]);
        assert_eq!(b.congestion(), 4);
        assert_eq!(b.load(0), 4);
        assert_eq!(b.busy_banks(), 1);
    }

    /// Paper Figure 2 (3): all threads access the same address → merged,
    /// congestion 1.
    #[test]
    fn figure2_case3_broadcast_merges() {
        let b = BankLoads::analyze(4, &[7, 7, 7, 7]);
        assert_eq!(b.congestion(), 1);
        assert_eq!(b.unique_requests(), 1);
    }

    #[test]
    fn partial_merge() {
        // Two threads share address 3, two more hit addresses 7 and 11 —
        // banks 3, 3, 3 after merge → loads [0,0,0,3].
        let b = BankLoads::analyze(4, &[3, 3, 7, 11]);
        assert_eq!(b.unique_requests(), 3);
        assert_eq!(b.congestion(), 3);
        assert_eq!(b.loads(), &[0, 0, 0, 3]);
    }

    #[test]
    fn mixed_banks_max_is_taken() {
        // Bank 0: addresses 0, 8 (2 unique); bank 1: address 1 (1).
        let b = BankLoads::analyze(4, &[0, 8, 1]);
        assert_eq!(b.congestion(), 2);
        assert_eq!(b.load(0), 2);
        assert_eq!(b.load(1), 1);
        assert_eq!(b.load(2), 0);
    }

    #[test]
    fn convenience_wrappers_agree() {
        let addrs = [0u64, 4, 8, 1, 2];
        assert_eq!(
            congestion(4, &addrs),
            BankLoads::analyze(4, &addrs).congestion()
        );
        assert!(!is_conflict_free(4, &addrs));
        assert!(is_conflict_free(4, &[0, 1, 2, 3]));
    }

    #[test]
    fn congestion_bounded_by_warp_size_and_width() {
        // 32 requests into width 8: congestion ≤ 32 but also each bank sees
        // ≤ 32 unique addresses; with addresses 0..32 each bank gets 4.
        let addrs: Vec<u64> = (0..32).collect();
        let b = BankLoads::analyze(8, &addrs);
        assert_eq!(b.congestion(), 4);
        assert_eq!(b.busy_banks(), 8);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let _ = BankLoads::analyze(0, &[1]);
    }

    #[test]
    fn width_one_serializes_everything() {
        let b = BankLoads::analyze(1, &[10, 20, 30]);
        assert_eq!(b.congestion(), 3);
    }

    /// The scratch kernel and both bitmask fast paths must agree
    /// bit-for-bit with the allocating `BankLoads::analyze` reference.
    #[test]
    fn scratch_matches_analyze_across_path_boundaries() {
        let mut scratch = CongestionScratch::new();
        // Hand-picked widths straddling the u64 (≤64), u128 (≤128), and
        // general (>128) path boundaries.
        for width in [1usize, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 200] {
            for n in [0usize, 1, 2, 63, 64, 65, 127, 128, 129, 160] {
                // Deterministic pseudo-random addresses with plenty of
                // duplicates and same-bank collisions.
                let addrs: Vec<u64> = (0..n)
                    .map(|i| {
                        let x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
                        x % (3 * width as u64 + 7)
                    })
                    .collect();
                let reference = BankLoads::analyze(width, &addrs).congestion();
                assert_eq!(
                    scratch.congestion(width, &addrs),
                    reference,
                    "scratch vs analyze at width={width}, n={n}"
                );
                assert_eq!(
                    congestion(width, &addrs),
                    reference,
                    "free fn vs analyze at width={width}, n={n}"
                );
            }
        }
    }

    /// SWAR boundary widths: 63 (odd, last SWAR width minus one), 64 (the
    /// last SWAR width, power of two), 65 (first width past the packed
    /// counters). Every lane count around the 64-lane capacity is swept,
    /// adversarial inputs included (all-same-bank, all-duplicates, and a
    /// max-density mix), against the allocating reference.
    #[test]
    fn swar_boundaries_match_analyze() {
        let mut scratch = CongestionScratch::new();
        for width in [63usize, 64, 65] {
            for n in [0usize, 1, 62, 63, 64, 65, 66] {
                let w = width as u64;
                let cases: [Vec<u64>; 4] = [
                    // one bank, all unique: congestion = n
                    (0..n as u64).map(|i| i * w).collect(),
                    // all lanes one address: congestion ≤ 1
                    vec![7 * w + 3; n],
                    // half duplicates, half same-bank uniques
                    (0..n as u64)
                        .map(|i| if i % 2 == 0 { w + 1 } else { i * w })
                        .collect(),
                    // pseudo-random with cross-bank spread
                    (0..n as u64)
                        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33) % (5 * w))
                        .collect(),
                ];
                for (ci, addrs) in cases.iter().enumerate() {
                    let reference = BankLoads::analyze(width, addrs).congestion();
                    assert_eq!(
                        congestion(width, addrs),
                        reference,
                        "free fn, width={width} n={n} case={ci}"
                    );
                    assert_eq!(
                        scratch.congestion(width, addrs),
                        reference,
                        "scratch, width={width} n={n} case={ci}"
                    );
                }
            }
        }
    }

    /// A packed byte counter must hold the worst case: 64 unique
    /// addresses all in one bank (count 64 < 256, no carry into the
    /// neighbouring counter byte).
    #[test]
    fn swar_counter_never_carries_into_neighbour_bank() {
        for width in [63usize, 64] {
            let w = width as u64;
            // 64 unique addresses in bank 8 (cell 1, byte 0) and one in
            // bank 9 (cell 1, byte 1): a carry from byte 0 would corrupt
            // bank 9's count.
            let mut addrs: Vec<u64> = (0..63).map(|i| 8 + i * w).collect();
            addrs.push(9);
            let b = BankLoads::analyze_fast(width, &addrs);
            assert_eq!(b.load(8), 63);
            assert_eq!(b.load(9), 1);
            assert_eq!(b.congestion(), 63);
        }
    }

    #[test]
    fn analyze_fast_is_bit_identical_to_analyze() {
        for width in [1usize, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 200] {
            for n in [0usize, 1, 2, 63, 64, 65, 100] {
                let addrs: Vec<u64> = (0..n)
                    .map(|i| {
                        let x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
                        x % (3 * width as u64 + 7)
                    })
                    .collect();
                assert_eq!(
                    BankLoads::analyze_fast(width, &addrs),
                    BankLoads::analyze(width, &addrs),
                    "width={width}, n={n}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn analyze_fast_zero_width_rejected() {
        let _ = BankLoads::analyze_fast(0, &[1]);
    }

    /// The compact bitmask path must agree with the address-space kernels
    /// on every width it serves, for many adversarial warps. Each lane is
    /// a synthetic `(tag, bank)` pair encoding address `tag·w + bank`
    /// (injective, and `bank_of` recovers `bank`), which is exactly the
    /// contract the fused matrix evaluator relies on.
    #[test]
    fn compact_path_matches_analyze_across_many_warps() {
        for width in [1usize, 2, 31, 32, 33, 63, 64] {
            let w = width as u64;
            for warp in 0..200u64 {
                let lanes: Vec<(u32, u32)> = (0..width as u64)
                    .map(|t| {
                        let x = splitmix_like(warp * 131 + t * 7 + width as u64);
                        (((x >> 32) % w) as u32, (x % w) as u32)
                    })
                    .collect();
                let addrs: Vec<u64> = lanes
                    .iter()
                    .map(|&(tag, bank)| u64::from(tag) * w + u64::from(bank))
                    .collect();
                let reference = BankLoads::analyze(width, &addrs).congestion();
                let mut cc = CompactCongestion::new(width);
                for &(tag, bank) in &lanes {
                    cc.lane(tag, bank);
                }
                assert_eq!(cc.finish(), reference, "width={width}, warp={warp}");
            }
        }
    }

    /// Duplicate `(tag, bank)` pairs merge (CRCW semantics), an empty
    /// warp reports 0, and consecutive accumulations are independent.
    #[test]
    fn compact_path_merges_duplicates_and_isolates_warps() {
        assert_eq!(CompactCongestion::new(8).finish(), 0);
        let mut cc = CompactCongestion::new(8);
        for _ in 0..64 {
            cc.lane(5, 3);
        }
        assert_eq!(cc.finish(), 1, "one address hit 64 times is congestion 1");
        // A fully-loaded warp, then a fresh accumulator: no leakage.
        let mut cc = CompactCongestion::new(4);
        for tag in 0..4u32 {
            cc.lane(tag, 2);
        }
        assert_eq!(cc.finish(), 4);
        let mut cc = CompactCongestion::new(4);
        cc.lane(0, 2);
        assert_eq!(cc.finish(), 1);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn compact_zero_width_rejected() {
        let _ = CompactCongestion::new(0);
    }

    #[test]
    #[should_panic(expected = "width ≤ 64")]
    fn compact_wide_width_rejected() {
        let _ = CompactCongestion::new(65);
    }

    /// Runs one warp of `(tag, bank)` lanes through the wide kernel.
    fn wide_congestion(width: usize, lanes: &[(u32, u32)]) -> u32 {
        let mut cc = WideCompactCongestion::new(width);
        for &(tag, bank) in lanes {
            cc.lane(tag, bank);
        }
        cc.finish()
    }

    /// The wide kernel against the sort-based reference, with random
    /// `(tag, bank)` warps and with warps whose tags straddle every
    /// tag-word boundary (63/64, 127/128, 191/192) and the last tag 255.
    #[test]
    fn wide_compact_path_matches_analyze() {
        const EDGE_TAGS: [u32; 7] = [63, 64, 127, 128, 191, 192, 255];
        for width in [1usize, 2, 63, 64, 65, 127, 128, 129, 192, 200, 255, 256] {
            let w = width as u64;
            for warp in 0..64u64 {
                let lanes: Vec<(u32, u32)> = (0..width as u64)
                    .map(|t| {
                        let x = splitmix_like(warp * 131 + t * 7 + width as u64);
                        let tag = if warp % 2 == 0 {
                            // Edge tags, folded into range for narrow widths.
                            EDGE_TAGS[(x % 7) as usize] % width as u32
                        } else {
                            ((x >> 32) % w) as u32
                        };
                        (tag, (x % w) as u32)
                    })
                    .collect();
                let addrs: Vec<u64> = lanes
                    .iter()
                    .map(|&(tag, bank)| u64::from(tag) * w + u64::from(bank))
                    .collect();
                let reference = BankLoads::analyze(width, &addrs).congestion();
                assert_eq!(
                    wide_congestion(width, &lanes),
                    reference,
                    "width={width}, warp={warp}"
                );
            }
        }
        // Every edge tag in one bank, each twice: each lands in a distinct
        // bit, and the bank's count sums across all four words.
        let lanes: Vec<(u32, u32)> = EDGE_TAGS
            .iter()
            .flat_map(|&t| [(t, 255), (t, 255)])
            .collect();
        assert_eq!(wide_congestion(256, &lanes), EDGE_TAGS.len() as u32);
        assert_eq!(wide_congestion(256, &[]), 0);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn wide_compact_zero_width_rejected() {
        let _ = WideCompactCongestion::new(0);
    }

    #[test]
    #[should_panic(expected = "width ≤ 256")]
    fn wide_compact_oversize_width_rejected() {
        let _ = WideCompactCongestion::new(257);
    }

    fn splitmix_like(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 31)
    }

    #[test]
    fn scratch_is_reusable_across_widths() {
        let mut scratch = CongestionScratch::new();
        assert_eq!(scratch.congestion(4, &[0, 4, 8, 12]), 4);
        // A wide call grows the heap buffers...
        let wide: Vec<u64> = (0..200).map(|i| i * 150).collect();
        assert_eq!(
            scratch.congestion(150, &wide),
            BankLoads::analyze(150, &wide).congestion()
        );
        // ...and a subsequent narrow call still gets the right answer.
        assert_eq!(scratch.congestion(4, &[7, 7, 7, 7]), 1);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn scratch_zero_width_rejected() {
        let _ = CongestionScratch::new().congestion(0, &[1]);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn bank_of_zero_width_rejected() {
        let _ = bank_of(0, 7);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn free_fn_zero_width_rejected_on_small_path() {
        let _ = congestion(0, &[1]);
    }

    /// 65..=128 addresses used to dodge the explicit assert and die in
    /// the u128 fast path's modulo instead; the hoisted check owns every
    /// path now.
    #[test]
    #[should_panic(expected = "width must be positive")]
    fn free_fn_zero_width_rejected_on_fixed128_path() {
        let addrs: Vec<u64> = (0..100).collect();
        let _ = congestion(0, &addrs);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn free_fn_zero_width_rejected_on_general_path() {
        let addrs: Vec<u64> = (0..200).collect();
        let _ = congestion(0, &addrs);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn free_fn_zero_width_rejected_even_when_empty() {
        let _ = congestion(0, &[]);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn is_conflict_free_zero_width_rejected() {
        let _ = is_conflict_free(0, &[3]);
    }
}
