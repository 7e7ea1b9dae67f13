//! Oracle for the in-place Table IV mapping redraw
//! (`array4d:redraw-vs-fresh`): [`Mapping4d::redraw`], which the 4-D
//! Monte-Carlo engine runs once per trial on a per-worker mapping,
//! against a freshly built [`Mapping4d::new`] and against
//! [`NaiveShift4d`], the shift function drawn one permutation and one
//! shift list at a time — all three from identically seeded generators.
//!
//! Each seed decodes a scheme, a width, a few trials and an independent
//! starting shape for the reused mapping, so the first redraw usually
//! has to resize or re-lay its table. Widths include non-powers of two,
//! where the bounded `gen_range` draws reject and consume extra words.
//! After every trial the redrawn mapping must equal the fresh one and
//! match the reference on the whole `w³` shift grid; after the last one
//! all three generators must produce the same next word. Any failure is
//! a divergence: the engine's estimate would no longer match the
//! fresh-mapping reference bit for bit.

use crate::oracle::{Divergence, Oracle};
use crate::pattern::splitmix64;
use crate::reference::NaiveShift4d;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rap_core::multidim::{Mapping4d, Scheme4d};

/// Table IV's width plus small and non-power-of-two widths.
const REDRAW_WIDTHS: &[usize] = &[1, 2, 3, 5, 7, 8, 12, 13, 16, 17, 24, 31, 32, 33];

/// Pairs a reused, redrawn [`Mapping4d`] with a fresh one and with the
/// naive reference, per trial.
#[derive(Debug, Default)]
pub struct RedrawOracle;

impl Oracle for RedrawOracle {
    fn name(&self) -> &'static str {
        "array4d:redraw-vs-fresh"
    }

    fn check(&mut self, seed: u64) -> Result<(), Divergence> {
        let mut rng = SmallRng::seed_from_u64(splitmix64(seed ^ 0x2c4e_91d7_0a3b_f865));
        let schemes = Scheme4d::all();
        let scheme = schemes[rng.gen_range(0..schemes.len())];
        let width = REDRAW_WIDTHS[rng.gen_range(0..REDRAW_WIDTHS.len())];
        let trials = rng.gen_range(1..=4u32);
        let start_scheme = schemes[rng.gen_range(0..schemes.len())];
        let start_width = REDRAW_WIDTHS[rng.gen_range(0..REDRAW_WIDTHS.len())];
        let mut reused = Mapping4d::new(start_scheme, &mut rng, start_width)
            .expect("every oracle width is positive");

        let stream_seed = rng.gen::<u64>();
        let mut rng_fresh = SmallRng::seed_from_u64(stream_seed);
        let mut rng_reused = SmallRng::seed_from_u64(stream_seed);
        let mut rng_naive = SmallRng::seed_from_u64(stream_seed);
        let diverge = |trial: u32, expected: String, actual: String| {
            Divergence::new(
                self.name(),
                seed,
                format!(
                    "scheme={scheme} width={width} trial={trial}/{trials} \
                     reused-from={start_scheme}@{start_width}"
                ),
                expected,
                actual,
            )
        };
        let w = width as u32;
        for trial in 0..trials {
            let fresh = Mapping4d::new(scheme, &mut rng_fresh, width)
                .expect("every oracle width is positive");
            reused
                .redraw(scheme, &mut rng_reused, width)
                .expect("every oracle width is positive");
            let naive = NaiveShift4d::draw(scheme, &mut rng_naive, width);
            if reused != fresh {
                return Err(diverge(
                    trial,
                    "the mapping Mapping4d::new draws".to_string(),
                    "a redrawn mapping that differs from it".to_string(),
                ));
            }
            for d3 in 0..w {
                for d2 in 0..w {
                    for d1 in 0..w {
                        let (expected, actual) =
                            (naive.shift(d1, d2, d3), reused.shift(d1, d2, d3));
                        if expected != actual {
                            return Err(diverge(
                                trial,
                                format!("f({d1},{d2},{d3}) = {expected}"),
                                format!("f({d1},{d2},{d3}) = {actual}"),
                            ));
                        }
                    }
                }
            }
        }
        let next = [
            rng_naive.gen::<u64>(),
            rng_fresh.gen::<u64>(),
            rng_reused.gen::<u64>(),
        ];
        if next[1] != next[0] || next[2] != next[0] {
            return Err(diverge(
                trials,
                format!("next word {:#x} after the reference draws", next[0]),
                format!(
                    "next words {:#x} (fresh) and {:#x} (redrawn)",
                    next[1], next[2]
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::case_seed;

    #[test]
    fn redraw_oracle_passes_a_sample() {
        let mut oracle = RedrawOracle;
        for i in 0..150 {
            let s = case_seed(13, oracle.name(), i);
            assert!(oracle.check(s).is_ok(), "seed {s:#x}");
        }
    }
}
