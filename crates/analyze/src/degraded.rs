//! Degraded-path bounds: answer a Monte-Carlo question symbolically.
//!
//! When the expensive simulation path is unavailable — `rap-serve`'s
//! circuit breaker is open, a deadline is too tight, or the process is
//! shedding load — a `pattern` query can still be answered *soundly*:
//! the static [`Prover`] derives a congestion interval
//! `[lo, hi]` valid for **every** instantiation of the scheme, which by
//! definition contains the expectation the Monte-Carlo estimator would
//! have converged to. The caller marks such responses `degraded:true`;
//! the client gets a certified envelope instead of an error page.
//!
//! The Table II pattern families are warp-symmetric, which is what makes
//! one prover call stand in for the whole access operation:
//!
//! * **contiguous** — warp `r` touches row `r`'s `w` distinct columns;
//!   row-shift mappings are injective within a row for every shift
//!   table, so the bound of warp 0 is the bound of every warp;
//! * **stride** — warp `c` is the column access `(t, c)`; the prover's
//!   verdict is invariant under the column translation `c ↦ c + 1`
//!   (shift tables are quantified over, and translating every touched
//!   column translates the compatible shift values by the same amount);
//! * **diagonal** — warp `d` touches `(t, (t + d) mod w)`; the same
//!   translation argument applies to the diagonal offset;
//! * **random** — not affine, so no symbolic bound exists; the envelope
//!   `[1, w]` is trivially sound (congestion is at least 1 and at most
//!   the warp size) and honestly labelled as such in `reason`.
//!
//! `Broadcast`, which no request can name, gets the same trivial
//! envelope.

use crate::engine::{Analysis, Prover};
use crate::ir::{AffineWarp, AnalyzeError};
use rap_access::MatrixPattern;
use rap_core::Scheme;

/// A sound congestion interval for `pattern` under `scheme` at width
/// `width`, valid for every warp of the family and every instantiation
/// of the scheme's random state (see the module docs for why one
/// representative warp suffices).
///
/// For the affine families this is the real prover verdict — exact
/// bounds with an attaining witness. For [`MatrixPattern::Random`] (and
/// the internal [`MatrixPattern::Broadcast`]) it is the trivially sound
/// `[1, w]` envelope with no witness.
///
/// # Errors
/// Propagates [`AnalyzeError`] for `width == 0` or a scheme/width
/// combination the prover rejects (XOR at non-power-of-two widths).
pub fn fallback_bounds(
    scheme: Scheme,
    pattern: MatrixPattern,
    width: usize,
) -> Result<Analysis, AnalyzeError> {
    if width == 0 {
        return Err(AnalyzeError::ZeroWidth);
    }
    let prover = Prover::new(width)?;
    let warp = match pattern {
        MatrixPattern::Contiguous => AffineWarp::contiguous(0, width),
        MatrixPattern::Stride => AffineWarp::column(0, width),
        // Warp `d` of the Monte-Carlo diagonal family is
        // `(t, (t + d) mod w)`; `AffineWarp::diagonal` is its transpose
        // `((t + d) mod w, t)`. Spell the estimator's orientation out so
        // the bound covers exactly what the simulation samples.
        MatrixPattern::Diagonal => AffineWarp::new(
            crate::ir::AffineForm::Coord {
                i: crate::ir::Axis::lane(),
                j: crate::ir::Axis::new(1, 0),
            },
            width,
        ),
        MatrixPattern::Random | MatrixPattern::Broadcast => {
            let why = if pattern == MatrixPattern::Random {
                "random pattern is not affine"
            } else {
                "broadcast is not a sampled pattern family"
            };
            return Ok(Analysis {
                scheme,
                width,
                lanes: width,
                unique_cells: 0,
                rows_touched: 0,
                lo: 1,
                hi: width as u32,
                reason: format!(
                    "{why}; [1, {width}] is the trivially \
                     sound envelope (congestion of a non-empty warp is ≥ 1 and \
                     ≤ the warp size)"
                ),
                witness: None,
            });
        }
    };
    let mut analysis = prover.analyze(&warp, scheme)?;
    analysis.reason = format!(
        "{} family (warp-symmetric, representative warp 0): {}",
        pattern.name().to_ascii_lowercase(),
        analysis.reason
    );
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_is_conflict_free_everywhere() {
        for scheme in [Scheme::Raw, Scheme::Ras, Scheme::Rap, Scheme::Padded] {
            let a = fallback_bounds(scheme, MatrixPattern::Contiguous, 16).unwrap();
            assert!(a.conflict_free_for_all(), "{scheme}: {a:?}");
        }
    }

    #[test]
    fn stride_bounds_separate_the_schemes() {
        let raw = fallback_bounds(Scheme::Raw, MatrixPattern::Stride, 16).unwrap();
        assert_eq!((raw.lo, raw.hi), (16, 16), "RAW column fully serializes");
        let rap = fallback_bounds(Scheme::Rap, MatrixPattern::Stride, 16).unwrap();
        assert_eq!(rap.hi, 1, "Theorem 2: RAP column is CF for every σ");
        let ras = fallback_bounds(Scheme::Ras, MatrixPattern::Stride, 16).unwrap();
        assert_eq!((ras.lo, ras.hi), (1, 16), "RAS shifts can align or spread");
    }

    #[test]
    fn diagonal_bounds_match_theory() {
        let raw = fallback_bounds(Scheme::Raw, MatrixPattern::Diagonal, 16).unwrap();
        assert_eq!(raw.hi, 1, "diagonal is RAW's optimized pattern");
        let rap = fallback_bounds(Scheme::Rap, MatrixPattern::Diagonal, 16).unwrap();
        assert_eq!(
            (rap.lo, rap.hi),
            (1, 16),
            "an adversarial σ aligns the whole diagonal"
        );
    }

    #[test]
    fn random_envelope_is_trivial_but_labelled() {
        let a = fallback_bounds(Scheme::Rap, MatrixPattern::Random, 32).unwrap();
        assert_eq!((a.lo, a.hi), (1, 32));
        assert!(a.witness.is_none());
        assert!(a.reason.contains("trivially sound"), "{}", a.reason);
    }

    #[test]
    fn bounds_contain_the_simulated_congestion_of_every_family_warp() {
        // Ground truth: enumerate every warp of each family at small w
        // under many concrete shift tables; each observed congestion must
        // land inside the degraded-path interval.
        use rap_core::{MatrixMapping, RowShift, Scheme};
        let w = 8usize;
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::SmallRng::seed_from_u64(7)
        };
        for pattern in [
            MatrixPattern::Contiguous,
            MatrixPattern::Stride,
            MatrixPattern::Diagonal,
        ] {
            for scheme in [Scheme::Raw, Scheme::Ras, Scheme::Rap] {
                let a = fallback_bounds(scheme, pattern, w).unwrap();
                for _ in 0..50 {
                    let mapping = RowShift::of_scheme(scheme, &mut rng, w);
                    for warp in 0..w as u32 {
                        let cells: Vec<(u32, u32)> = (0..w as u32)
                            .map(|t| match pattern {
                                MatrixPattern::Contiguous => (warp, t),
                                MatrixPattern::Stride => (t, warp),
                                MatrixPattern::Diagonal => (t, (t + warp) % w as u32),
                                MatrixPattern::Random | MatrixPattern::Broadcast => {
                                    unreachable!()
                                }
                            })
                            .collect();
                        let mut loads = vec![0u32; w];
                        let mut seen = std::collections::BTreeSet::new();
                        for &(i, j) in &cells {
                            if seen.insert((i, j)) {
                                loads[mapping.bank(i, j) as usize] += 1;
                            }
                        }
                        let congestion = loads.iter().copied().max().unwrap_or(0);
                        assert!(
                            a.contains(congestion),
                            "{scheme} {pattern} warp {warp}: {congestion} ∉ [{}, {}]",
                            a.lo,
                            a.hi
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_width_is_an_error() {
        assert!(matches!(
            fallback_bounds(Scheme::Rap, MatrixPattern::Stride, 0),
            Err(AnalyzeError::ZeroWidth)
        ));
    }
}
