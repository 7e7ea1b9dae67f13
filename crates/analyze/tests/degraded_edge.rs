//! Edge cases of the degraded-path bounds (`rap_analyze::degraded`):
//! the zero-width guard across every pattern family, exactness (`lo ==
//! hi`) of the envelopes the breaker-open serve path reports verbatim,
//! the trivial envelope of the non-affine arms (Random and the internal
//! Broadcast), and the SWAR boundary widths 63/64/65 where the
//! bit-parallel congestion kernel switches word layouts underneath the
//! prover.

use rap_access::MatrixPattern;
use rap_analyze::{fallback_bounds, AnalyzeError};
use rap_core::Scheme;

const PATTERNS: [MatrixPattern; 5] = [
    MatrixPattern::Contiguous,
    MatrixPattern::Stride,
    MatrixPattern::Diagonal,
    MatrixPattern::Random,
    MatrixPattern::Broadcast,
];

#[test]
fn zero_width_is_guarded_for_every_pattern_and_scheme() {
    for pattern in PATTERNS {
        for scheme in Scheme::extended() {
            assert!(
                matches!(
                    fallback_bounds(scheme, pattern, 0),
                    Err(AnalyzeError::ZeroWidth)
                ),
                "{scheme} {pattern}: width 0 must be ZeroWidth, not a panic or a bogus bound"
            );
        }
    }
}

#[test]
fn exact_envelopes_collapse_to_lo_eq_hi() {
    // These are the verdicts the breaker-open serve path serves verbatim
    // with `source:"static-analyzer"`; where the family is deterministic
    // under the scheme, the interval must collapse (`lo == hi`) so the
    // degraded answer is as sharp as the full simulation's.
    for w in [8usize, 16, 63, 64, 65] {
        for scheme in [Scheme::Raw, Scheme::Ras, Scheme::Rap, Scheme::Padded] {
            let a = fallback_bounds(scheme, MatrixPattern::Contiguous, w).unwrap();
            assert!(a.exact(), "{scheme} contiguous w={w}: [{}, {}]", a.lo, a.hi);
            assert_eq!(a.hi, 1, "rows are conflict-free under every row shift");
        }
        let raw = fallback_bounds(Scheme::Raw, MatrixPattern::Stride, w).unwrap();
        assert!(raw.exact(), "RAW stride is deterministic");
        assert_eq!(raw.hi, w as u32, "RAW column fully serializes");
        let rap = fallback_bounds(Scheme::Rap, MatrixPattern::Stride, w).unwrap();
        assert!(rap.exact(), "Theorem 2 collapses the RAP column interval");
        assert_eq!(rap.hi, 1);
    }
}

#[test]
fn swar_boundary_widths_bound_every_simulated_warp() {
    // 63/64/65 straddle the u64 word boundary of the bit-parallel
    // congestion kernel; the symbolic bounds must still contain every
    // concrete instantiation there.
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rap_core::build_mapping;
    use rap_core::congestion::BankLoads;

    let mut rng = SmallRng::seed_from_u64(2014);
    for w in [63usize, 64, 65] {
        for pattern in [
            MatrixPattern::Contiguous,
            MatrixPattern::Stride,
            MatrixPattern::Diagonal,
        ] {
            for scheme in [Scheme::Raw, Scheme::Ras, Scheme::Rap, Scheme::Padded] {
                let a = fallback_bounds(scheme, pattern, w).unwrap();
                assert!(a.lo >= 1 && a.lo <= a.hi && a.hi <= w as u32, "{a:?}");
                for _ in 0..8 {
                    let mapping = build_mapping(scheme, &mut rng, w);
                    let addrs: Vec<u64> = (0..w as u32)
                        .map(|t| {
                            let (i, j) = match pattern {
                                MatrixPattern::Contiguous => (0, t),
                                MatrixPattern::Stride => (t, 0),
                                MatrixPattern::Diagonal => (t, t),
                                MatrixPattern::Random | MatrixPattern::Broadcast => {
                                    unreachable!()
                                }
                            };
                            u64::from(mapping.address(i, j))
                        })
                        .collect();
                    let simulated = BankLoads::analyze_fast(w, &addrs).congestion();
                    assert!(
                        a.contains(simulated),
                        "{scheme} {pattern} w={w}: simulated {simulated} ∉ [{}, {}]",
                        a.lo,
                        a.hi
                    );
                }
            }
        }
    }
}

#[test]
fn broadcast_gets_the_trivial_envelope_like_random() {
    // No request can name Broadcast, but `fallback_bounds` takes any
    // `MatrixPattern`: it must answer with the same sound `[1, w]`
    // envelope as Random (no witness), labelled as trivial, and that
    // envelope must contain what the simulation measures.
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rap_access::matrix::{generate, warp_congestion};

    let mut rng = SmallRng::seed_from_u64(2014);
    for w in [2usize, 8, 63, 64, 65] {
        for scheme in Scheme::extended() {
            if scheme == Scheme::Xor && !w.is_power_of_two() {
                continue;
            }
            let b = fallback_bounds(scheme, MatrixPattern::Broadcast, w).unwrap();
            let r = fallback_bounds(scheme, MatrixPattern::Random, w).unwrap();
            assert_eq!((b.lo, b.hi), (1, w as u32), "{scheme} w={w}");
            assert_eq!((b.lo, b.hi), (r.lo, r.hi), "{scheme} w={w}");
            assert!(b.witness.is_none(), "{scheme} w={w}");
            assert!(b.reason.contains("trivially sound"), "{}", b.reason);
            assert!(b.reason.starts_with("broadcast"), "{}", b.reason);
            let mapping = rap_core::build_mapping(scheme, &mut rng, w);
            for warp in generate(MatrixPattern::Broadcast, w, &mut rng) {
                assert!(b.contains(warp_congestion(mapping.as_ref(), &warp)));
            }
        }
    }
}

#[test]
fn xor_at_swar_boundaries_is_gated_not_crashed() {
    // 64 is a power of two, 63/65 are not: the prover must answer at 64
    // and return a contextual error (never panic) at its neighbours.
    assert!(fallback_bounds(Scheme::Xor, MatrixPattern::Stride, 64).is_ok());
    for w in [63usize, 65] {
        let err = fallback_bounds(Scheme::Xor, MatrixPattern::Stride, w).unwrap_err();
        assert!(
            err.to_string().contains("power of two") || err.to_string().contains("power-of-two"),
            "w={w}: {err}"
        );
    }
}
