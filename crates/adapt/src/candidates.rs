//! Swap candidates: layouts the controller is *allowed* to migrate to.
//!
//! The safety rule of the whole subsystem is that a candidate enters the
//! set only with a machine-checked worst-case congestion bound per
//! traffic class:
//!
//! * **static schemes** (RAW/RAS/RAP/Padded/XOR) get their bounds from
//!   the `rap-analyze` prover via `fallback_bounds` — certified for
//!   *every* instantiation of the scheme's random state;
//! * **synthesized tables** (PR-7 layouts from
//!   `rap_synthesize::candidates`) arrive checker-verified for their
//!   workload, and this module *recomputes* each class bound exactly
//!   from the concrete table — a table is a fixed function, so the
//!   worst case over a warp family is directly enumerable.
//!
//! Table semantics match `RowShift`: bank of cell `(i, j)` is
//! `(j + layout[i]) mod w`.

use crate::monitor::{TrafficClass, CLASSES};
use rap_access::MatrixPattern;
use rap_analyze::fallback_bounds;
use rap_core::Scheme;

/// What a candidate actually is, once active.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CandidateKind {
    /// One of the five static schemes (instantiated per request seed).
    Scheme(Scheme),
    /// A fixed synthesized shift table.
    Table(Vec<u32>),
}

/// A swap candidate with certified per-class worst-case bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Stable name used in ledger records, status output, and `adapt_force`.
    pub name: String,
    /// The layout itself.
    pub kind: CandidateKind,
    /// Certified worst-case congestion per [`TrafficClass`] (index order).
    pub bounds: [u32; CLASSES],
    /// Where the bounds came from: `"prover"` or `"synthesis"`.
    pub source: &'static str,
}

impl Candidate {
    /// The certified worst-case bound for `class`.
    #[must_use]
    pub fn bound(&self, class: TrafficClass) -> u32 {
        self.bounds[class.index()]
    }

    /// Build a candidate for a static scheme, bounds from the prover.
    ///
    /// # Errors
    /// Propagates prover rejections (e.g. XOR at a non-power-of-two
    /// width) as a message.
    pub fn of_scheme(scheme: Scheme, width: usize) -> Result<Self, String> {
        let mut bounds = [0u32; CLASSES];
        for class in TrafficClass::ALL {
            let analysis = fallback_bounds(scheme, class_pattern(class), width)
                .map_err(|e| format!("prover rejected {scheme} at w={width}: {e}"))?;
            bounds[class.index()] = analysis.hi;
        }
        Ok(Self {
            name: scheme_candidate_name(scheme).to_string(),
            kind: CandidateKind::Scheme(scheme),
            bounds,
            source: "prover",
        })
    }

    /// Build a candidate from a fixed shift table, bounds by exact
    /// enumeration of each warp family under the concrete table.
    ///
    /// # Errors
    /// Rejects a table whose length differs from `width` or with an
    /// entry `≥ width`.
    pub fn from_table(name: &str, layout: Vec<u32>, width: usize) -> Result<Self, String> {
        if width == 0 {
            return Err("width must be positive".to_string());
        }
        if layout.len() != width {
            return Err(format!(
                "layout has {} entries, width is {width}",
                layout.len()
            ));
        }
        if let Some(bad) = layout.iter().find(|&&s| (s as usize) >= width) {
            return Err(format!("layout entry {bad} out of range 0..{width}"));
        }
        let bounds = table_bounds(&layout, width);
        Ok(Self {
            name: name.to_string(),
            kind: CandidateKind::Table(layout),
            bounds,
            source: "synthesis",
        })
    }
}

/// Exact per-class worst-case congestion of a fixed shift table.
///
/// * **Contiguous**: warp `r` touches row `r`'s `w` columns; banks
///   `(j + layout[r]) mod w` are distinct over `j`, so congestion is 1.
/// * **Stride**: warp `c` touches `(t, c)`; banks `(c + layout[t])`.
///   Adding the constant `c` permutes bank labels, so the worst case
///   over warps is the max multiplicity of the `layout[t]` multiset.
/// * **Diagonal**: warp `d` touches `(t, (t + d) mod w)`; banks
///   `(t + d + layout[t])` — same translation argument, max
///   multiplicity of the `(t + layout[t]) mod w` multiset.
/// * **Random**: not affine; the sound envelope is `w`.
fn table_bounds(layout: &[u32], width: usize) -> [u32; CLASSES] {
    let w = width as u32;
    let mut stride_counts = vec![0u32; width];
    let mut diag_counts = vec![0u32; width];
    for (i, &s) in layout.iter().enumerate() {
        stride_counts[s as usize] += 1;
        diag_counts[((i as u32 + s) % w) as usize] += 1;
    }
    let stride = stride_counts.iter().copied().max().unwrap_or(1);
    let diagonal = diag_counts.iter().copied().max().unwrap_or(1);
    let mut bounds = [0u32; CLASSES];
    bounds[TrafficClass::Contiguous.index()] = 1;
    bounds[TrafficClass::Stride.index()] = stride;
    bounds[TrafficClass::Diagonal.index()] = diagonal;
    bounds[TrafficClass::Random.index()] = w;
    bounds
}

/// The Table II pattern family a monitor class tracks.
#[must_use]
pub fn class_pattern(class: TrafficClass) -> MatrixPattern {
    match class {
        TrafficClass::Contiguous => MatrixPattern::Contiguous,
        TrafficClass::Stride => MatrixPattern::Stride,
        TrafficClass::Diagonal => MatrixPattern::Diagonal,
        TrafficClass::Random => MatrixPattern::Random,
    }
}

/// Candidate name for a static scheme (lower-case, matches the serve
/// protocol's scheme spelling).
#[must_use]
pub fn scheme_candidate_name(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Raw => "raw",
        Scheme::Ras => "ras",
        Scheme::Rap => "rap",
        Scheme::Xor => "xor",
        Scheme::Padded => "padded",
    }
}

/// The static-scheme candidate set at `width`: every scheme the prover
/// accepts there (XOR drops out at non-power-of-two widths).
#[must_use]
pub fn standard_candidates(width: usize) -> Vec<Candidate> {
    Scheme::extended()
        .into_iter()
        .filter_map(|scheme| Candidate::of_scheme(scheme, width).ok())
        .collect()
}

/// Checker-verified synthesized candidates for `workload_spec` at
/// `width`, named `synth:<mode>:w<width>`.
///
/// # Errors
/// Propagates workload-spec parse errors; search/check failures merely
/// shrink the result.
pub fn synthesized_candidates(
    width: usize,
    workload_spec: &str,
    seed: u64,
) -> Result<Vec<Candidate>, String> {
    let workload = rap_synthesize::parse_workload(workload_spec, width)?;
    let verified = rap_synthesize::candidates(&workload, seed)?;
    let mut out = Vec::new();
    for v in verified {
        // from_table recomputes the per-class bounds from the concrete
        // layout — independent of the synthesis objective.
        out.push(Candidate::from_table(&v.name, v.layout, width)?);
    }
    Ok(out)
}

/// Find a candidate by name.
#[must_use]
pub fn find<'a>(candidates: &'a [Candidate], name: &str) -> Option<&'a Candidate> {
    candidates.iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_set_covers_paper_schemes() {
        let set = standard_candidates(8);
        for name in ["raw", "ras", "rap", "xor", "padded"] {
            assert!(find(&set, name).is_some(), "missing {name} at w=8");
        }
        // XOR drops out at non-power-of-two width; the rest stay.
        let set6 = standard_candidates(6);
        assert!(find(&set6, "xor").is_none());
        assert!(find(&set6, "rap").is_some());
    }

    #[test]
    fn raw_bounds_match_table_ii_worst_cases() {
        let raw = Candidate::of_scheme(Scheme::Raw, 16).unwrap();
        assert_eq!(raw.bound(TrafficClass::Contiguous), 1);
        assert_eq!(
            raw.bound(TrafficClass::Stride),
            16,
            "column access serializes"
        );
        assert_eq!(raw.bound(TrafficClass::Random), 16);
    }

    #[test]
    fn identity_table_matches_raw_exactly() {
        let ident = Candidate::from_table("ident", vec![0; 8], 8).unwrap();
        assert_eq!(ident.bound(TrafficClass::Contiguous), 1);
        assert_eq!(ident.bound(TrafficClass::Stride), 8);
        // (i + 0) mod 8 is a permutation — diagonal is conflict-free.
        assert_eq!(ident.bound(TrafficClass::Diagonal), 1);
        assert_eq!(ident.bound(TrafficClass::Random), 8);
    }

    #[test]
    fn permutation_table_is_conflict_free_on_stride() {
        let perm = Candidate::from_table("perm", vec![3, 1, 0, 2], 4).unwrap();
        assert_eq!(perm.bound(TrafficClass::Stride), 1);
    }

    #[test]
    fn bad_tables_are_rejected() {
        assert!(Candidate::from_table("short", vec![0], 4).is_err());
        assert!(Candidate::from_table("oob", vec![0, 1, 2, 9], 4).is_err());
        assert!(Candidate::from_table("zero", vec![], 0).is_err());
    }

    #[test]
    fn synthesized_candidates_verify_and_bound() {
        let set = synthesized_candidates(8, "column:0;column:3", 2014).unwrap();
        assert!(!set.is_empty());
        for c in &set {
            assert_eq!(c.source, "synthesis");
            let CandidateKind::Table(layout) = &c.kind else {
                panic!("synthesized candidate must be a table");
            };
            assert_eq!(layout.len(), 8);
            // A column-only workload synthesizes a stride-conflict-free
            // table (a permutation exists and search finds objective 1).
            assert_eq!(c.bound(TrafficClass::Stride), 1, "{}", c.name);
        }
    }
}
