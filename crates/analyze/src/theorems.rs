//! Static certification of the paper's headline claims.
//!
//! Each certifier assembles a [`TheoremReport`] of machine-checked
//! [`Claim`]s, every one a *universally quantified* statement proven by
//! the symbolic prover — "conflict-free for **all** σ", not "was
//! conflict-free for the seeds we tried". This is the analyzer's reason
//! to exist: the Monte-Carlo engine can only sample instantiations, the
//! prover quantifies over them.

use crate::engine::Prover;
use crate::ir::{AffineWarp, AnalyzeError};
use crate::lemmas::{rap_dividing_stride_max, rap_stride_conflict_free_for_all};
use rap_core::Scheme;
use serde::{Deserialize, Serialize};

/// One machine-checked claim inside a [`TheoremReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Claim {
    /// Human-readable statement of the claim.
    pub description: String,
    /// Scheme the claim quantifies over.
    pub scheme: Scheme,
    /// Proven congestion lower bound.
    pub lo: u32,
    /// Proven (and attained) congestion upper bound.
    pub hi: u32,
    /// Whether the prover established the claim.
    pub proven: bool,
}

/// The outcome of certifying one theorem at one width.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TheoremReport {
    /// Which theorem was certified (e.g. `"theorem1"`).
    pub theorem: String,
    /// Machine width the certification ran at.
    pub width: usize,
    /// The individual claims, all of which must hold.
    pub claims: Vec<Claim>,
    /// Conjunction of all claims.
    pub proven: bool,
}

impl TheoremReport {
    fn seal(theorem: &str, width: usize, claims: Vec<Claim>) -> Self {
        let proven = claims.iter().all(|c| c.proven);
        Self {
            theorem: theorem.to_string(),
            width,
            claims,
            proven,
        }
    }

    /// Pretty-printed JSON of the report.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

impl std::fmt::Display for TheoremReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} @ w = {}: {}",
            self.theorem,
            self.width,
            if self.proven { "PROVEN" } else { "UNPROVEN" }
        )?;
        for c in &self.claims {
            writeln!(
                f,
                "  [{}] {} — congestion in [{}, {}] under {}",
                if c.proven { "ok" } else { "FAIL" },
                c.description,
                c.lo,
                c.hi,
                c.scheme
            )?;
        }
        Ok(())
    }
}

/// Theorem 1 (contiguous access): every full-warp row access is
/// conflict-free under every scheme and every instantiation; the
/// contrasting column access under RAW saturates one bank.
///
/// `should_stop` is polled before every prover call; pass `&|| false` to
/// certify to the end.
///
/// # Errors
/// [`AnalyzeError::ZeroWidth`] if `width == 0`;
/// [`AnalyzeError::Stopped`] as soon as `should_stop` returns `true`.
pub fn certify_theorem1(
    width: usize,
    should_stop: &dyn Fn() -> bool,
) -> Result<TheoremReport, AnalyzeError> {
    let prover = Prover::new(width)?;
    let w = width as u64;
    let mut claims = Vec::new();
    for scheme in Scheme::extended() {
        if scheme == Scheme::Xor && (width < 2 || !width.is_power_of_two()) {
            continue;
        }
        // Sweep every row, keep the worst.
        let mut worst_hi = 0u32;
        let mut worst_lo = u32::MAX;
        for row in 0..w {
            if should_stop() {
                return Err(AnalyzeError::Stopped);
            }
            let (lo, hi) = prover.bounds(&AffineWarp::contiguous(row, width), scheme)?;
            worst_hi = worst_hi.max(hi);
            worst_lo = worst_lo.min(lo);
        }
        claims.push(Claim {
            description: format!(
                "contiguous access to any of the {w} rows is conflict-free for every instantiation"
            ),
            scheme,
            lo: worst_lo,
            hi: worst_hi,
            proven: worst_hi <= 1,
        });
    }
    // Contrast: the un-randomized column access RAW is meant to fix.
    if should_stop() {
        return Err(AnalyzeError::Stopped);
    }
    let (lo, hi) = prover.bounds(&AffineWarp::column(0, width), Scheme::Raw)?;
    claims.push(Claim {
        description: format!("column access under RAW saturates one bank (congestion = w = {w})"),
        scheme: Scheme::Raw,
        lo,
        hi,
        proven: lo == hi && hi == width as u32,
    });
    Ok(TheoremReport::seal("theorem1", width, claims))
}

/// Theorem 2 (column access under RAP): every full-warp column access is
/// conflict-free for **every** permutation σ — plus the honest stride
/// ladder: a full-warp flat dividing stride `s | w` has adversarial
/// maximum exactly `min(s, w/s)`, so only the endpoints `s ∈ {1, w}`
/// are conflict-free for all σ. The contrasting RAS claim shows why the
/// permutation constraint matters: with unconstrained shifts an
/// adversarial table drives a column access to congestion `w`.
///
/// `should_stop` is polled before every prover call; pass `&|| false` to
/// certify to the end.
///
/// # Errors
/// [`AnalyzeError::ZeroWidth`] if `width == 0`;
/// [`AnalyzeError::Stopped`] as soon as `should_stop` returns `true`.
pub fn certify_theorem2(
    width: usize,
    should_stop: &dyn Fn() -> bool,
) -> Result<TheoremReport, AnalyzeError> {
    let prover = Prover::new(width)?;
    let w = width as u64;
    let mut claims = Vec::new();
    // Every column, conflict-free for all σ.
    let mut worst_hi = 0u32;
    let mut worst_lo = u32::MAX;
    for col in 0..w {
        if should_stop() {
            return Err(AnalyzeError::Stopped);
        }
        let (lo, hi) = prover.bounds(&AffineWarp::column(col, width), Scheme::Rap)?;
        worst_hi = worst_hi.max(hi);
        worst_lo = worst_lo.min(lo);
    }
    claims.push(Claim {
        description: format!(
            "column access to any of the {w} columns is conflict-free for EVERY permutation σ"
        ),
        scheme: Scheme::Rap,
        lo: worst_lo,
        hi: worst_hi,
        proven: worst_hi <= 1,
    });
    // The dividing-stride ladder, each stride's exact adversarial max.
    for s in 1..=w {
        if !w.is_multiple_of(s) {
            continue;
        }
        if should_stop() {
            return Err(AnalyzeError::Stopped);
        }
        let (lo, hi) = prover.bounds(&AffineWarp::flat_stride(s, 0, width), Scheme::Rap)?;
        let expected = rap_dividing_stride_max(width, s);
        let cf = rap_stride_conflict_free_for_all(width, s);
        claims.push(Claim {
            description: format!(
                "full-warp flat stride {s} | {w} has adversarial RAP maximum exactly \
                 min(s, w/s) = {expected}{}",
                if cf {
                    " (conflict-free for all σ)"
                } else {
                    " (NOT conflict-free for adversarial σ)"
                }
            ),
            scheme: Scheme::Rap,
            lo,
            hi,
            proven: hi == expected && cf == (hi <= 1),
        });
    }
    // Contrast: RAS without the permutation constraint is defenseless
    // against an adversarial shift table on the same column access.
    if should_stop() {
        return Err(AnalyzeError::Stopped);
    }
    let (lo, hi) = prover.bounds(&AffineWarp::column(0, width), Scheme::Ras)?;
    claims.push(Claim {
        description: format!(
            "column access under RAS can reach congestion w = {w} for an adversarial shift table"
        ),
        scheme: Scheme::Ras,
        lo,
        hi,
        proven: hi == width as u32,
    });
    Ok(TheoremReport::seal("theorem2", width, claims))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_proven_across_widths() {
        for w in [1usize, 2, 3, 4, 8, 16, 32, 33, 127, 128] {
            let r = certify_theorem1(w, &|| false).unwrap();
            assert!(r.proven, "w={w}:\n{r}");
        }
    }

    #[test]
    fn theorem2_proven_across_widths() {
        for w in [1usize, 2, 3, 4, 8, 12, 16, 32, 33, 127, 128] {
            let r = certify_theorem2(w, &|| false).unwrap();
            assert!(r.proven, "w={w}:\n{r}");
        }
    }

    #[test]
    fn theorem2_stride_claims_are_honest() {
        // At w = 4 the stride-2 claim must record max 2 — NOT
        // conflict-free — while strides 1 and 4 are CF for all σ.
        let r = certify_theorem2(4, &|| false).unwrap();
        let stride2 = r
            .claims
            .iter()
            .find(|c| c.description.contains("stride 2"))
            .expect("stride-2 claim present");
        assert_eq!(stride2.hi, 2);
        assert!(stride2.description.contains("NOT conflict-free"));
        let stride4 = r
            .claims
            .iter()
            .find(|c| c.description.contains("stride 4"))
            .unwrap();
        assert_eq!(stride4.hi, 1);
    }

    #[test]
    fn zero_width_is_an_error() {
        assert_eq!(
            certify_theorem1(0, &|| false).unwrap_err(),
            AnalyzeError::ZeroWidth
        );
        assert_eq!(
            certify_theorem2(0, &|| false).unwrap_err(),
            AnalyzeError::ZeroWidth
        );
    }

    #[test]
    fn reports_serialize_and_render() {
        let r = certify_theorem2(8, &|| false).unwrap();
        let json = r.to_json();
        assert!(json.contains("\"theorem\": \"theorem2\""));
        let back: TheoremReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert!(r.to_string().contains("PROVEN"));
    }

    #[test]
    fn a_stop_request_ends_certification_before_the_next_prover_call() {
        use std::cell::Cell;
        for w in [4usize, 16] {
            let polls = Cell::new(0);
            let stop_after_three = || {
                polls.set(polls.get() + 1);
                polls.get() > 3
            };
            assert_eq!(
                certify_theorem1(w, &stop_after_three),
                Err(AnalyzeError::Stopped)
            );
            assert_eq!(polls.get(), 4, "w = {w}");
            polls.set(0);
            assert_eq!(
                certify_theorem2(w, &stop_after_three),
                Err(AnalyzeError::Stopped)
            );
            assert_eq!(polls.get(), 4, "w = {w}");
        }
        assert_eq!(
            certify_theorem1(0, &|| true).unwrap_err(),
            AnalyzeError::ZeroWidth
        );
    }
}
