//! **rap-analyze** — static affine-access analyzer: prove
//! conflict-freedom and congestion bounds *without simulation*.
//!
//! The Monte-Carlo engine in `rap-dmm` samples instantiations of the
//! RAS shift table and the RAP permutation σ; this crate quantifies over
//! them. A warp's requests are described as affine functions of the lane
//! index ([`AffineWarp`]), and the symbolic [`Prover`] derives a
//! congestion interval `[lo, hi]` valid for **every** instantiation via
//! gcd/residue-class reasoning mod `w` — `hi ≤ 1` is exactly the paper's
//! "conflict-free for all σ" (Theorem 2), and every `hi` comes with a
//! concrete [`Witness`] instantiation attaining it.
//!
//! Layers:
//!
//! * [`ir`] — the affine-access IR (`addr(t) = a·t + b` flat forms and
//!   `(i(t), j(t))` coordinate forms matching the conformance pattern
//!   families);
//! * [`engine`] — the symbolic prover (deterministic bank evaluation for
//!   RAW/XOR/Padded, row-alignment for RAS, bipartite matching over
//!   shift values for RAP);
//! * [`lemmas`] — closed-form stride laws cross-checking the prover
//!   (`⌈L/p⌉` with `p = w/gcd(s, w)` under RAW; `min(s, w/s)` under
//!   RAP for dividing strides);
//! * [`theorems`] — machine-checked certification of the paper's
//!   Theorem 1 and Theorem 2 claims;
//! * [`lint`] — a lint pass walking the declared access plans of the
//!   transpose algorithms and application kernels, emitting structured
//!   diagnostics with stable rule IDs and minimal witness warps;
//! * [`degraded`] — the graceful-degradation API: map a Monte-Carlo
//!   pattern family to its certified `[lo, hi]` envelope so an online
//!   service can answer `pattern` queries soundly when the simulation
//!   path is shed or circuit-broken.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod degraded;
pub mod engine;
pub mod ir;
pub mod lemmas;
pub mod lint;
pub mod theorems;

pub use degraded::fallback_bounds;
pub use engine::{Analysis, Prover, Witness};
pub use ir::{AffineForm, AffineWarp, AnalyzeError, Axis};
pub use lemmas::{
    gcd, rap_dividing_stride_max, rap_stride_conflict_free_for_all, raw_flat_stride_congestion,
};
pub use lint::{lint_plans, Diagnostic, LintReport, Severity};
pub use theorems::{certify_theorem1, certify_theorem2, Claim, TheoremReport};
