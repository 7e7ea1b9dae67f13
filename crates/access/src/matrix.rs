//! Warp access patterns for a `w × w` matrix (paper §III and §V).
//!
//! An *access operation* assigns one matrix element to each of `w²`
//! threads; the threads are partitioned into `w` warps of `w`. This module
//! generates the logical coordinates per warp for the patterns the paper
//! simulates in Table II — contiguous, stride, diagonal, random — plus the
//! broadcast and adversarial patterns discussed in §I/§II.

use crate::scratch::AccessScratch;
use rand::Rng;
use rap_core::mapping::MatrixMapping;
use rap_core::{CompactCongestion, RowShift, WideCompactCongestion};
use serde::{Deserialize, Serialize};

/// Logical matrix coordinate `(row i, column j)`.
pub type Coord = (u32, u32);

/// The access pattern kinds evaluated in Table II (plus extras).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatrixPattern {
    /// Row-major: warp `r` accesses row `r` (`A[r][0..w]`).
    Contiguous,
    /// Column-major: warp `c` accesses column `c` (`A[0..w][c]`).
    Stride,
    /// Diagonal: thread `j` of warp `d` accesses `A[j][(j + d) mod w]`.
    Diagonal,
    /// Uniformly random elements (fresh per call).
    Random,
    /// Every thread of every warp reads `A[0][0]` (tests CRCW merging).
    Broadcast,
}

impl MatrixPattern {
    /// All Table II patterns in row order.
    #[must_use]
    pub fn table2() -> [MatrixPattern; 4] {
        [
            MatrixPattern::Contiguous,
            MatrixPattern::Stride,
            MatrixPattern::Diagonal,
            MatrixPattern::Random,
        ]
    }

    /// Display name matching the paper's row labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MatrixPattern::Contiguous => "Contiguous",
            MatrixPattern::Stride => "Stride",
            MatrixPattern::Diagonal => "Diagonal",
            MatrixPattern::Random => "Random",
            MatrixPattern::Broadcast => "Broadcast",
        }
    }
}

impl std::fmt::Display for MatrixPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for MatrixPattern {
    type Err = String;

    /// Parse one of the four Table II pattern names, case-insensitively.
    /// [`MatrixPattern::Broadcast`] is internal and has no name here.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "contiguous" => Ok(MatrixPattern::Contiguous),
            "stride" => Ok(MatrixPattern::Stride),
            "diagonal" => Ok(MatrixPattern::Diagonal),
            "random" => Ok(MatrixPattern::Random),
            other => Err(format!(
                "unknown pattern '{other}' (expected contiguous|stride|diagonal|random)"
            )),
        }
    }
}

/// Generate the full access operation for `pattern` on a `w × w` matrix:
/// one coordinate list per warp, `w` warps of `w` threads.
///
/// Deterministic patterns ignore `rng`; [`MatrixPattern::Random`] draws
/// fresh coordinates from it.
///
/// # Panics
/// Panics if `w == 0`.
#[must_use]
pub fn generate<R: Rng + ?Sized>(pattern: MatrixPattern, w: usize, rng: &mut R) -> Vec<Vec<Coord>> {
    assert!(w > 0, "matrix width must be positive");
    let wu = w as u32;
    match pattern {
        MatrixPattern::Contiguous => (0..wu).map(|r| (0..wu).map(|j| (r, j)).collect()).collect(),
        MatrixPattern::Stride => (0..wu).map(|c| (0..wu).map(|i| (i, c)).collect()).collect(),
        MatrixPattern::Diagonal => (0..wu)
            .map(|d| (0..wu).map(|j| (j, (j + d) % wu)).collect())
            .collect(),
        MatrixPattern::Random => (0..wu)
            .map(|_| (0..wu).map(|_| random_pair(rng, wu)).collect())
            .collect(),
        MatrixPattern::Broadcast => (0..wu).map(|_| vec![(0, 0); w]).collect(),
    }
}

/// Fill `out` with warp `warp`'s coordinates — the scratch-reusing
/// counterpart of one row of [`generate`].
///
/// Calling this for `warp = 0..w` in order with the same `rng` consumes
/// the random stream exactly like one [`generate`] call, so per-warp
/// results are identical to indexing `generate(..)[warp]` — only without
/// the `Vec<Vec<Coord>>` per trial.
///
/// # Panics
/// Panics if `w == 0` or `warp ≥ w`.
pub fn generate_warp_into<R: Rng + ?Sized>(
    pattern: MatrixPattern,
    w: usize,
    warp: u32,
    rng: &mut R,
    out: &mut Vec<Coord>,
) {
    assert!(w > 0, "matrix width must be positive");
    let wu = w as u32;
    assert!(warp < wu, "warp {warp} out of range for width {w}");
    out.clear();
    match pattern {
        MatrixPattern::Contiguous => out.extend((0..wu).map(|j| (warp, j))),
        MatrixPattern::Stride => out.extend((0..wu).map(|i| (i, warp))),
        MatrixPattern::Diagonal => out.extend((0..wu).map(|j| (j, (j + warp) % wu))),
        MatrixPattern::Random => {
            out.extend((0..wu).map(|_| random_pair(rng, wu)));
        }
        MatrixPattern::Broadcast => out.extend(std::iter::repeat_n((0, 0), w)),
    }
}

/// Draw a uniform coordinate pair `(i, j)` in `[0, w)²` from (typically)
/// one 64-bit word: each half is an exact 32-bit Lemire sample, and a
/// half redraws from a fresh word only with probability `w / 2³²`.
/// Exactly uniform, at half the generator traffic of two `gen_range`
/// calls — the random pattern's inner loop draws millions of pairs.
#[inline]
fn random_pair<R: Rng + ?Sized>(rng: &mut R, w: u32) -> (u32, u32) {
    let v: u64 = rng.gen();
    (
        lemire_half(rng, (v >> 32) as u32, w),
        lemire_half(rng, v as u32, w),
    )
}

/// Exact Lemire sample of `[0, w)` seeded from the 32-bit word `x`,
/// redrawing from `rng` only when `x` falls in the biased zone
/// (probability `< w / 2³²`, so the division and the loop are
/// effectively never executed).
#[inline]
fn lemire_half<R: Rng + ?Sized>(rng: &mut R, x: u32, w: u32) -> u32 {
    let mut m = u64::from(x) * u64::from(w);
    if (m as u32) < w {
        let t = w.wrapping_neg() % w;
        while (m as u32) < t {
            m = u64::from(rng.gen::<u32>()) * u64::from(w);
        }
    }
    (m >> 32) as u32
}

/// The scheme-aware adversary: given full knowledge of the mapping,
/// construct one warp access in which every thread hits bank `bank`
/// with a distinct address (congestion exactly `w`).
///
/// For RAW this is simply a column access; for RAS/RAP it inverts the
/// row shifts (`j = (bank − shift_i) mod w`). Its existence shows that the
/// RAP guarantee is probabilistic over `σ` — an adversary who *knows* `σ`
/// defeats it, which is why the permutation must be chosen at run time
/// (paper §IV chooses σ uniformly at random).
///
/// # Panics
/// Panics if `bank ≥ w`.
#[must_use]
pub fn adversarial_warp(mapping: &RowShift, bank: u32) -> Vec<Coord> {
    let w = mapping.width() as u32;
    assert!(bank < w, "bank {bank} out of range for width {w}");
    (0..w)
        .map(|i| {
            let j = (bank + w - mapping.shift_of_row(i) % w) % w;
            (i, j)
        })
        .collect()
}

/// Map one warp's logical coordinates to physical flat addresses under
/// `mapping`.
#[must_use]
pub fn warp_addresses(mapping: &dyn MatrixMapping, warp: &[Coord]) -> Vec<u64> {
    warp.iter()
        .map(|&(i, j)| u64::from(mapping.address(i, j)))
        .collect()
}

/// Congestion of one warp's access under `mapping`.
#[must_use]
pub fn warp_congestion(mapping: &dyn MatrixMapping, warp: &[Coord]) -> u32 {
    rap_core::congestion::congestion(mapping.width(), &warp_addresses(mapping, warp))
}

/// Congestion of one warp's access, reusing `scratch`'s buffers — the
/// allocation-free counterpart of [`warp_congestion`].
#[must_use]
pub fn warp_congestion_with(
    mapping: &dyn MatrixMapping,
    warp: &[Coord],
    scratch: &mut AccessScratch,
) -> u32 {
    scratch.addrs.clear();
    scratch
        .addrs
        .extend(warp.iter().map(|&(i, j)| u64::from(mapping.address(i, j))));
    scratch
        .congestion
        .congestion(mapping.width(), &scratch.addrs)
}

/// The congestion kernels of the fused path: [`CompactCongestion`] for
/// `w ≤ 64` (one mask word per bank) and [`WideCompactCongestion`] (four
/// mask words per bank) up to `w = 256`.
trait LaneKernel {
    fn new(width: usize) -> Self;
    fn lane(&mut self, tag: u32, bank: u32);
    /// Borrows: taking the kernel by value through this trait copied its
    /// masks once per warp.
    fn finish(&self) -> u32;
}

impl LaneKernel for CompactCongestion {
    #[inline]
    fn new(width: usize) -> Self {
        CompactCongestion::new(width)
    }
    #[inline]
    fn lane(&mut self, tag: u32, bank: u32) {
        CompactCongestion::lane(self, tag, bank);
    }
    #[inline]
    fn finish(&self) -> u32 {
        CompactCongestion::finish(self)
    }
}

impl LaneKernel for WideCompactCongestion {
    #[inline]
    fn new(width: usize) -> Self {
        WideCompactCongestion::new(width)
    }
    #[inline]
    fn lane(&mut self, tag: u32, bank: u32) {
        WideCompactCongestion::lane(self, tag, bank);
    }
    #[inline]
    fn finish(&self) -> u32 {
        WideCompactCongestion::finish(self)
    }
}

/// Widest `w` the narrow kernel serves; wider composed rows go to the
/// wide kernel.
const NARROW_WIDTH: usize = 64;

/// Congestion of one warp of `pattern`, fused end to end: coordinates are
/// generated inline, the permute-shift mapping is one byte read from the
/// shift row composed into `scratch` (see [`AccessScratch::compose`]) and
/// a conditional subtract, and dedup + counting collapse into a
/// bit-parallel kernel — [`CompactCongestion`] for `w ≤ 64`,
/// [`WideCompactCongestion`] up to `w = 256`. Lane `(i, j)` lands in bank
/// `c = (j + s_i) mod w` at address `i·w + c`, so within one bank the row
/// index `i` identifies the address and one `OR` per lane suffices. No
/// coordinate or address buffer is materialized and no per-lane division
/// runs.
///
/// Consumes the random stream **exactly** like
/// [`generate_warp_into`] for `warp = 0..w` in order (only
/// [`MatrixPattern::Random`] draws: one `random_pair` per lane), so
/// results are bit-identical to the unfused
/// `generate_warp_into` + [`warp_congestion_with`] pipeline — the engine
/// tests and the `congestion:fused-vs-unfused` conformance oracle pin
/// this.
///
/// # Panics
/// Panics if `w == 0`, `warp ≥ w`, or the row in `scratch` was not
/// composed for a width-`w` mapping.
#[inline]
#[must_use]
pub fn warp_congestion_fused<R: Rng + ?Sized>(
    pattern: MatrixPattern,
    w: usize,
    warp: u32,
    rng: &mut R,
    scratch: &mut AccessScratch,
) -> u32 {
    if w <= NARROW_WIDTH {
        warp_fused::<CompactCongestion, R>(pattern, w, warp, rng, scratch)
    } else {
        warp_fused_wide(pattern, w, warp, rng, scratch)
    }
}

/// The `w > 64` arm of [`warp_congestion_fused`], kept out of line for
/// the reason given at [`trial_fused_wide`], which it mirrors.
#[inline(never)]
fn warp_fused_wide<R: Rng + ?Sized>(
    pattern: MatrixPattern,
    w: usize,
    warp: u32,
    rng: &mut R,
    scratch: &mut AccessScratch,
) -> u32 {
    warp_fused::<WideCompactCongestion, R>(pattern, w, warp, rng, scratch)
}

/// [`warp_congestion_fused`] with the kernel chosen by the caller.
/// Always inlined: the Random trial loop relies on the pattern being a
/// compile-time constant here.
#[inline(always)]
fn warp_fused<K: LaneKernel, R: Rng + ?Sized>(
    pattern: MatrixPattern,
    w: usize,
    warp: u32,
    rng: &mut R,
    scratch: &mut AccessScratch,
) -> u32 {
    assert!(w > 0, "matrix width must be positive");
    let wu = w as u32;
    assert!(warp < wu, "warp {warp} out of range for width {w}");
    let composed = &scratch.composed;
    assert_eq!(
        composed.width(),
        wu,
        "scratch row composed for a different width"
    );
    let mut cc = K::new(w);
    match pattern {
        MatrixPattern::Contiguous => {
            for j in 0..wu {
                cc.lane(warp, composed.bank(warp, j));
            }
        }
        MatrixPattern::Stride => {
            for i in 0..wu {
                cc.lane(i, composed.bank(i, warp));
            }
        }
        MatrixPattern::Diagonal => {
            for j in 0..wu {
                // (j + warp) mod w via conditional subtract: both < w.
                let mut c = j + warp;
                c -= wu * u32::from(c >= wu);
                cc.lane(j, composed.bank(j, c));
            }
        }
        MatrixPattern::Random => {
            for _ in 0..wu {
                let (i, j) = random_pair(rng, wu);
                cc.lane(i, composed.bank(i, j));
            }
        }
        MatrixPattern::Broadcast => {
            for _ in 0..wu {
                cc.lane(0, composed.bank(0, 0));
            }
        }
    }
    cc.finish()
}

/// Evaluate **every** warp of one trial of `pattern` through the fused
/// path, feeding each warp's congestion to `sink` in warp order.
///
/// Semantically identical to calling [`warp_congestion_fused`] for
/// `warp = 0..w` in order: same results, same RNG consumption (the
/// fused-vs-unfused tests cover this entry point too). It does less work:
///
/// * Only [`MatrixPattern::Random`] evaluates every warp. The other
///   patterns draw nothing, and under a row-shift mapping warp `k` is
///   warp 0 with every lane's bank translated by `k` (mod `w`), tag for
///   tag: Stride's lane `i` lands in bank `k + s_i`, Diagonal's lane `j`
///   in `j + k + s_j`; a Contiguous row covers every bank once and
///   Broadcast's lanes are identical. A cyclic translation permutes the
///   banks and keeps each bank's set of tags, so every warp's congestion
///   equals warp 0's: it is computed once and sent to `sink` `w` times.
/// * The kernel choice and the pattern dispatch happen once per trial
///   instead of once per warp, so the Random warp loop is specialized
///   for each kernel.
///
/// # Panics
/// Panics if `w == 0` or the row in `scratch` was not composed for a
/// width-`w` mapping.
pub fn trial_congestions_fused<R: Rng + ?Sized>(
    pattern: MatrixPattern,
    w: usize,
    rng: &mut R,
    scratch: &mut AccessScratch,
    sink: impl FnMut(u32),
) {
    if w <= NARROW_WIDTH {
        trial_fused::<CompactCongestion, R>(pattern, w, rng, scratch, sink);
    } else {
        trial_fused_wide(pattern, w, rng, scratch, sink);
    }
}

/// The `w > 64` arm of [`trial_congestions_fused`], kept out of line:
/// inlined next to the narrow loops, the wide kernel's stack frame made
/// the `w = 32` Monte-Carlo loop measurably slower.
#[inline(never)]
fn trial_fused_wide<R: Rng + ?Sized>(
    pattern: MatrixPattern,
    w: usize,
    rng: &mut R,
    scratch: &mut AccessScratch,
    sink: impl FnMut(u32),
) {
    trial_fused::<WideCompactCongestion, R>(pattern, w, rng, scratch, sink);
}

/// [`trial_congestions_fused`] with the kernel chosen by the caller.
fn trial_fused<K: LaneKernel, R: Rng + ?Sized>(
    pattern: MatrixPattern,
    w: usize,
    rng: &mut R,
    scratch: &mut AccessScratch,
    mut sink: impl FnMut(u32),
) {
    assert!(w > 0, "matrix width must be positive");
    let wu = w as u32;
    if pattern == MatrixPattern::Random {
        for warp in 0..wu {
            sink(warp_fused::<K, R>(
                MatrixPattern::Random,
                w,
                warp,
                rng,
                scratch,
            ));
        }
    } else {
        // Rotation-invariant: every warp equals warp 0 (see above).
        let congestion = warp_fused::<K, R>(pattern, w, 0, rng, scratch);
        for _ in 0..wu {
            sink(congestion);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rap_core::Scheme;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(77)
    }

    #[test]
    fn table2_names_parse_case_insensitively_and_round_trip() {
        for p in MatrixPattern::table2() {
            assert_eq!(p.to_string().parse::<MatrixPattern>(), Ok(p));
            assert_eq!(
                p.name().to_ascii_uppercase().parse::<MatrixPattern>(),
                Ok(p)
            );
            assert_eq!(
                p.name().to_ascii_lowercase().parse::<MatrixPattern>(),
                Ok(p)
            );
        }
        assert_eq!(
            "Zigzag".parse::<MatrixPattern>(),
            Err(
                "unknown pattern 'zigzag' (expected contiguous|stride|diagonal|random)".to_string()
            )
        );
        // Broadcast is internal: it has a display name but no parse.
        assert!(MatrixPattern::Broadcast
            .to_string()
            .parse::<MatrixPattern>()
            .is_err());
    }

    #[test]
    fn shapes_are_w_by_w() {
        let mut r = rng();
        for p in [
            MatrixPattern::Contiguous,
            MatrixPattern::Stride,
            MatrixPattern::Diagonal,
            MatrixPattern::Random,
            MatrixPattern::Broadcast,
        ] {
            let op = generate(p, 8, &mut r);
            assert_eq!(op.len(), 8, "{p}");
            assert!(op.iter().all(|w| w.len() == 8), "{p}");
        }
    }

    #[test]
    fn deterministic_patterns_cover_matrix_once() {
        let mut r = rng();
        for p in [
            MatrixPattern::Contiguous,
            MatrixPattern::Stride,
            MatrixPattern::Diagonal,
        ] {
            let op = generate(p, 16, &mut r);
            let mut seen = std::collections::HashSet::new();
            for warp in &op {
                for &c in warp {
                    assert!(seen.insert(c), "{p}: coordinate {c:?} repeated");
                }
            }
            assert_eq!(seen.len(), 256, "{p} must touch every element once");
        }
    }

    #[test]
    fn contiguous_warps_are_rows() {
        let op = generate(MatrixPattern::Contiguous, 4, &mut rng());
        assert_eq!(op[2], vec![(2, 0), (2, 1), (2, 2), (2, 3)]);
    }

    #[test]
    fn stride_warps_are_columns() {
        let op = generate(MatrixPattern::Stride, 4, &mut rng());
        assert_eq!(op[1], vec![(0, 1), (1, 1), (2, 1), (3, 1)]);
    }

    #[test]
    fn diagonal_matches_paper_figure4() {
        // Figure 4 (w=4) diagonal: warp d, thread j → A[j][(j+d) mod 4].
        let op = generate(MatrixPattern::Diagonal, 4, &mut rng());
        assert_eq!(op[0], vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
        assert_eq!(op[1], vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
    }

    #[test]
    fn congestion_classes_under_raw() {
        let raw = RowShift::raw(32);
        let mut r = rng();
        let cont = generate(MatrixPattern::Contiguous, 32, &mut r);
        let stride = generate(MatrixPattern::Stride, 32, &mut r);
        let diag = generate(MatrixPattern::Diagonal, 32, &mut r);
        assert!(cont.iter().all(|wp| warp_congestion(&raw, wp) == 1));
        assert!(stride.iter().all(|wp| warp_congestion(&raw, wp) == 32));
        assert!(diag.iter().all(|wp| warp_congestion(&raw, wp) == 1));
    }

    #[test]
    fn congestion_classes_under_rap() {
        let mut r = rng();
        let rap = RowShift::rap(&mut r, 32);
        let cont = generate(MatrixPattern::Contiguous, 32, &mut r);
        let stride = generate(MatrixPattern::Stride, 32, &mut r);
        assert!(cont.iter().all(|wp| warp_congestion(&rap, wp) == 1));
        assert!(
            stride.iter().all(|wp| warp_congestion(&rap, wp) == 1),
            "RAP stride must be conflict-free (Theorem 2)"
        );
    }

    #[test]
    fn broadcast_is_congestion_one_everywhere() {
        let mut r = rng();
        for scheme in Scheme::all() {
            let m = RowShift::of_scheme(scheme, &mut r, 16);
            let op = generate(MatrixPattern::Broadcast, 16, &mut r);
            assert!(op.iter().all(|wp| warp_congestion(&m, wp) == 1));
        }
    }

    #[test]
    fn adversary_defeats_every_scheme_it_knows() {
        let mut r = rng();
        for scheme in Scheme::all() {
            let m = RowShift::of_scheme(scheme, &mut r, 32);
            for bank in [0u32, 7, 31] {
                let warp = adversarial_warp(&m, bank);
                assert_eq!(
                    warp_congestion(&m, &warp),
                    32,
                    "{scheme}: informed adversary must achieve full congestion"
                );
            }
        }
    }

    #[test]
    fn adversary_against_raw_is_harmless_to_fresh_rap() {
        // The anti-RAW warp (a plain column) does NOT hurt RAP.
        let mut r = rng();
        let raw = RowShift::raw(32);
        let warp = adversarial_warp(&raw, 5); // = column 5
        let rap = RowShift::rap(&mut r, 32);
        assert_eq!(warp_congestion(&rap, &warp), 1);
    }

    #[test]
    fn random_pattern_is_reproducible_per_seed() {
        let a = generate(MatrixPattern::Random, 8, &mut SmallRng::seed_from_u64(5));
        let b = generate(MatrixPattern::Random, 8, &mut SmallRng::seed_from_u64(5));
        let c = generate(MatrixPattern::Random, 8, &mut SmallRng::seed_from_u64(6));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn adversarial_bank_bounds_checked() {
        let m = RowShift::raw(8);
        let _ = adversarial_warp(&m, 8);
    }

    /// The fused evaluator must be bit-identical to the unfused
    /// generate + map + count pipeline for every pattern, scheme, and
    /// width of both bit-parallel kernels — and must consume the random
    /// stream exactly the same way (checked by comparing warp-by-warp
    /// with twin RNGs).
    #[test]
    fn fused_path_matches_unfused_pipeline() {
        let mut scratch = AccessScratch::new();
        for scheme in Scheme::all() {
            for w in [
                1usize, 2, 5, 16, 31, 32, 33, 63, 64, 65, 127, 128, 129, 200, 255, 256,
            ] {
                let mut map_rng = SmallRng::seed_from_u64(1000 + w as u64);
                let mapping = RowShift::of_scheme(scheme, &mut map_rng, w);
                assert!(scratch.compose(&mapping), "w={w} must compose");
                for p in [
                    MatrixPattern::Contiguous,
                    MatrixPattern::Stride,
                    MatrixPattern::Diagonal,
                    MatrixPattern::Random,
                    MatrixPattern::Broadcast,
                ] {
                    let seed = 7 * w as u64 + 13;
                    let mut rng_a = SmallRng::seed_from_u64(seed);
                    let mut rng_b = SmallRng::seed_from_u64(seed);
                    let mut buf = Vec::new();
                    for warp in 0..w as u32 {
                        let fused = warp_congestion_fused(p, w, warp, &mut rng_a, &mut scratch);
                        generate_warp_into(p, w, warp, &mut rng_b, &mut buf);
                        let unfused = warp_congestion_with(&mapping, &buf, &mut scratch);
                        assert_eq!(fused, unfused, "{scheme} {p} w={w} warp={warp}");
                    }
                }
            }
        }
    }

    /// The trial loop evaluates warp 0 once for every pattern but Random
    /// and repeats it: each warp it reports must equal that warp evaluated
    /// on its own, and the trial must leave the random stream untouched.
    #[test]
    fn rotation_invariant_trials_match_every_warp() {
        let mut scratch = AccessScratch::new();
        for scheme in Scheme::all() {
            for w in [
                1usize, 2, 3, 7, 31, 32, 33, 63, 64, 65, 127, 128, 129, 200, 255, 256,
            ] {
                let mut map_rng = SmallRng::seed_from_u64(5000 + w as u64);
                let mapping = RowShift::of_scheme(scheme, &mut map_rng, w);
                assert!(scratch.compose(&mapping), "w={w} must compose");
                for p in [
                    MatrixPattern::Contiguous,
                    MatrixPattern::Stride,
                    MatrixPattern::Diagonal,
                    MatrixPattern::Broadcast,
                ] {
                    let mut trial_rng = SmallRng::seed_from_u64(w as u64);
                    let before = trial_rng.clone();
                    let mut trial = Vec::with_capacity(w);
                    trial_congestions_fused(p, w, &mut trial_rng, &mut scratch, |c| trial.push(c));
                    assert_eq!(trial_rng, before, "{scheme} {p} w={w}: rng moved");
                    assert_eq!(trial.len(), w, "{scheme} {p} w={w}");
                    for warp in 0..w as u32 {
                        let alone = warp_congestion_fused(p, w, warp, &mut trial_rng, &mut scratch);
                        assert_eq!(
                            trial[warp as usize], alone,
                            "{scheme} {p} w={w} warp={warp}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "different width")]
    fn fused_path_rejects_stale_row() {
        let mut scratch = AccessScratch::new();
        let mapping = RowShift::raw(8);
        assert!(scratch.compose(&mapping));
        let mut r = rng();
        let _ = warp_congestion_fused(MatrixPattern::Contiguous, 16, 0, &mut r, &mut scratch);
    }
}
