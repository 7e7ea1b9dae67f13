//! Oracle for the fused permute-shift congestion kernel
//! (`congestion:fused-vs-unfused`): the bit-parallel fast path —
//! coordinates generated inline, the mapping one shift-row byte and a
//! conditional subtract, counting done by one of two kernels:
//! `CompactCongestion` (`w ≤ 64`) or `WideCompactCongestion`
//! (`64 < w ≤ 256`), both dedup masks, and every pattern but Random
//! evaluated for warp 0 only and repeated `w` times (rotation
//! invariance) — against the fully unfused pipeline:
//! `generate_warp_into`, per-lane [`MatrixMapping::address`] arithmetic,
//! and the sort-based [`BankLoads::analyze`] reference count.
//!
//! Each seed decodes one `(width, scheme, pattern)` instance with
//! `width ≤ 256` (the fused path's domain, including the narrow kernel's
//! word boundaries 63/64, the 64/65 handoff to the wide kernel, its tag
//! word boundary 127/128 and its top 255/256), composes the shift row
//! once, and then walks
//! **every** warp of one trial through both paths with identically seeded
//! random streams. Any per-warp disagreement — value or random-stream
//! drift — is a divergence.
//!
//! One seed in four decodes a **fixed** layout instead — the padded
//! layout or a drawn free shift table like the ones synthesis produces,
//! at a width from the ladder above or past the row's 256 banks — and
//! holds `fixed_layout_congestion` (fused for these rotations up to
//! `w = 256`, unfused beyond) to the same unfused reference over every
//! warp of 1–3 trials, bit for bit in the merged statistics.

use crate::oracle::{Divergence, Oracle};
use crate::pattern::splitmix64;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rap_access::matrix::{self, MatrixPattern};
use rap_access::montecarlo::fixed_layout_congestion;
use rap_access::{AccessScratch, CancelToken};
use rap_core::modern::Padded;
use rap_core::{BankLoads, MatrixMapping, RowShift, Scheme};
use rap_stats::{OnlineStats, SeedDomain};

/// Widths the fused kernel serves (its `w ≤ 256` precondition), with the
/// 64-bit mask boundaries, the narrow/wide handoff and the top of the
/// wide kernel explicitly present.
const FUSED_WIDTHS: &[usize] = &[
    1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 200, 255, 256,
];

/// Widths past the composed row's range, where a fixed layout keeps the
/// unfused loop.
const WIDE_WIDTHS: [usize; 2] = [257, 300];

/// Salt of the fixed-layout decode (and of the choice to make one).
const FIXED_SALT: u64 = 0x2c6e_91d0_f4a7_358b;

/// The five matrix pattern families of the paper's Table II plus
/// broadcast.
const PATTERNS: [MatrixPattern; 5] = [
    MatrixPattern::Contiguous,
    MatrixPattern::Stride,
    MatrixPattern::Diagonal,
    MatrixPattern::Random,
    MatrixPattern::Broadcast,
];

/// Pairs [`matrix::trial_congestions_fused`] (and through it
/// [`matrix::warp_congestion_fused`]), and `fixed_layout_congestion`
/// under a fixed layout, with the unfused generate → address → analyze
/// pipeline across all warps of a trial.
#[derive(Debug, Default)]
pub struct FusedKernelOracle {
    warp_buf: Vec<matrix::Coord>,
    addr_buf: Vec<u64>,
}

impl Oracle for FusedKernelOracle {
    fn name(&self) -> &'static str {
        "congestion:fused-vs-unfused"
    }

    fn check(&mut self, seed: u64) -> Result<(), Divergence> {
        if splitmix64(seed ^ FIXED_SALT).is_multiple_of(4) {
            return self.check_fixed_layout(seed).map_err(|d| *d);
        }
        let mut rng = SmallRng::seed_from_u64(splitmix64(seed ^ 0x5f3d_a2c1_8b47_e690));
        let width = FUSED_WIDTHS[rng.gen_range(0..FUSED_WIDTHS.len())];
        let scheme = Scheme::all()[rng.gen_range(0..Scheme::all().len())];
        let pattern = PATTERNS[rng.gen_range(0..PATTERNS.len())];
        let mapping = RowShift::of_scheme(scheme, &mut rng, width);

        let mut scratch = AccessScratch::default();
        assert!(
            scratch.compose(&mapping),
            "width {width} is within the fused path's domain"
        );

        // Twin random streams: the fused path must consume randomness
        // exactly like the unfused generator, warp by warp.
        let stream_seed = rng.gen::<u64>();
        let mut rng_fused = SmallRng::seed_from_u64(stream_seed);
        let mut rng_unfused = SmallRng::seed_from_u64(stream_seed);

        let mut fused = Vec::with_capacity(width);
        matrix::trial_congestions_fused(pattern, width, &mut rng_fused, &mut scratch, |c| {
            fused.push(c);
        });

        for warp in 0..width as u32 {
            let expected = self.unfused_warp(&mapping, pattern, warp, &mut rng_unfused);
            let actual = fused[warp as usize];
            if expected != actual {
                return Err(Divergence::new(
                    self.name(),
                    seed,
                    format!(
                        "scheme={scheme} width={width} pattern={} warp={warp}",
                        pattern.name()
                    ),
                    expected.to_string(),
                    actual.to_string(),
                ));
            }
        }
        Ok(())
    }
}

impl FusedKernelOracle {
    /// Congestion of warp `warp` of `pattern` under `mapping`, generated
    /// from `rng`, mapped lane by lane and counted by sorting.
    fn unfused_warp(
        &mut self,
        mapping: &dyn MatrixMapping,
        pattern: MatrixPattern,
        warp: u32,
        rng: &mut SmallRng,
    ) -> u32 {
        let width = mapping.width();
        matrix::generate_warp_into(pattern, width, warp, rng, &mut self.warp_buf);
        self.addr_buf.clear();
        self.addr_buf.extend(
            self.warp_buf
                .iter()
                .map(|&(i, j)| u64::from(mapping.address(i, j))),
        );
        BankLoads::analyze(width, &self.addr_buf).congestion()
    }

    /// A fixed-layout case: `fixed_layout_congestion` against every warp
    /// of its trials (Random: trial `t` from `domain.rng(t)`; the other
    /// patterns: one trial) through [`Self::unfused_warp`].
    fn check_fixed_layout(&mut self, seed: u64) -> Result<(), Box<Divergence>> {
        let mut rng = SmallRng::seed_from_u64(splitmix64(seed ^ FIXED_SALT));
        let widths = [FUSED_WIDTHS, &WIDE_WIDTHS].concat();
        let width = widths[rng.gen_range(0..widths.len())];
        let pattern = PATTERNS[rng.gen_range(0..PATTERNS.len())];
        let trials = rng.gen_range(1..=3);
        let (layout, mapping): (&str, Box<dyn MatrixMapping>) = if rng.gen() {
            (
                "padded",
                Box::new(Padded::new(width).expect("positive width")),
            )
        } else {
            ("shift table", Box::new(RowShift::ras(&mut rng, width)))
        };
        let domain = SeedDomain::new(rng.gen());

        let run = fixed_layout_congestion(
            mapping.as_ref(),
            pattern,
            trials,
            &domain,
            &CancelToken::never(),
        );
        let mut expected = OnlineStats::new();
        let runs = if pattern == MatrixPattern::Random {
            trials
        } else {
            1
        };
        for t in 0..runs {
            let mut stream = domain.rng(t);
            for warp in 0..width as u32 {
                expected.push_u32(self.unfused_warp(mapping.as_ref(), pattern, warp, &mut stream));
            }
        }
        if run.cancelled || run.stats.to_raw() != expected.to_raw() {
            return Err(Box::new(Divergence::new(
                self.name(),
                seed,
                format!(
                    "fixed layout={layout} width={width} pattern={} trials={trials}",
                    pattern.name()
                ),
                format!("{:?}", expected.to_raw()),
                format!("{:?} (cancelled: {})", run.stats.to_raw(), run.cancelled),
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::case_seed;

    #[test]
    fn fused_oracle_passes_a_sample() {
        let mut oracle = FusedKernelOracle::default();
        for i in 0..200 {
            let s = case_seed(11, oracle.name(), i);
            assert!(oracle.check(s).is_ok(), "seed {s:#x}");
        }
    }

    #[test]
    fn fused_oracle_is_deterministic_in_the_seed() {
        let mut a = FusedKernelOracle::default();
        let mut b = FusedKernelOracle::default();
        for i in 0..32 {
            let s = case_seed(5, "congestion:fused-vs-unfused", i);
            assert_eq!(a.check(s).is_ok(), b.check(s).is_ok());
        }
    }
}
