//! Higher-dimension RAP variants for a `w × w × w × w` array (paper §VII).
//!
//! For arrays larger than `w²` the single-permutation RAP must be extended.
//! Element `A[d3][d2][d1][d0]` sits at address
//! `d3·w³ + d2·w² + d1·w + d0`, i.e. in bank `d0` under RAW. Every extension
//! keeps the row structure and rotates the innermost index by a *shift
//! function* `f(d1, d2, d3)`:
//!
//! ```text
//! bank(d3, d2, d1, d0) = (d0 + f(d1, d2, d3)) mod w
//! ```
//!
//! The paper proposes five shift functions (Table IV), trading congestion
//! guarantees against the number of stored random values:
//!
//! | scheme | `f(d1,d2,d3)` | random values |
//! |---|---|---|
//! | 1P | `σ(d1)` | `w` |
//! | R1P | `σ(d1) + σ(d2) + σ(d3)` | `w` |
//! | 3P | `σ(d1) + τ(d2) + υ(d3)` | `3w` |
//! | w²P | `σ_{d3·w+d2}(d1)` | `w³` |
//! | 1P+w²R | `σ(d1) + r_{d3·w+d2}` | `w² + w` |
//!
//! plus the baselines RAW (`f = 0`) and RAS (an independent random shift
//! per row, `w³` values). The paper's conclusion — reproduced by our
//! Table IV bench — is that **3P** is the best extension: every stride
//! access is conflict-free, the congestion of random access matches
//! balls-into-bins, there is no known adversarial pattern beating the
//! `O(log w / log log w)` bound, and it stores only `3w` random values.
//! R1P matches 3P on the fixed patterns but a scheme-aware adversary can
//! exploit the *shared* permutation: all `3! = 6` index-permutations of a
//! triple `(a, b, c)` have equal shift sum `σ(a)+σ(b)+σ(c)`, so malicious
//! warps reach congestion `6·Θ(log(w/6)/log log(w/6))`.

use crate::error::CoreError;
use crate::permutation::shuffle;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Identifier of a 4-D mapping scheme (Table IV column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme4d {
    /// Straightforward layout, `f = 0`.
    Raw,
    /// Random address shift: an independent random shift per `w`-element
    /// row (`w³` random values).
    Ras,
    /// One permutation: `f = σ(d1)`.
    OneP,
    /// Repeated one permutation: `f = σ(d1) + σ(d2) + σ(d3)`.
    R1P,
    /// Three independent permutations: `f = σ(d1) + τ(d2) + υ(d3)`.
    ThreeP,
    /// `w²` independent permutations: `f = σ_{d3·w+d2}(d1)`.
    WSquaredP,
    /// One permutation plus `w²` random shifts:
    /// `f = σ(d1) + r_{d3·w+d2}`.
    OnePlusWSquaredR,
}

impl Scheme4d {
    /// Display name matching the paper's Table IV header.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scheme4d::Raw => "RAW",
            Scheme4d::Ras => "RAS",
            Scheme4d::OneP => "1P",
            Scheme4d::R1P => "R1P",
            Scheme4d::ThreeP => "3P",
            Scheme4d::WSquaredP => "w^2P",
            Scheme4d::OnePlusWSquaredR => "1P+w^2R",
        }
    }

    /// All schemes in the paper's column order.
    #[must_use]
    pub fn all() -> [Scheme4d; 7] {
        [
            Scheme4d::Raw,
            Scheme4d::Ras,
            Scheme4d::OneP,
            Scheme4d::R1P,
            Scheme4d::ThreeP,
            Scheme4d::WSquaredP,
            Scheme4d::OnePlusWSquaredR,
        ]
    }

    /// Number of stored random values for width `w` (Table IV last row).
    #[must_use]
    pub fn random_number_count(self, w: usize) -> usize {
        match self {
            Scheme4d::Raw => 0,
            Scheme4d::Ras | Scheme4d::WSquaredP => w * w * w,
            Scheme4d::OneP | Scheme4d::R1P => w,
            Scheme4d::ThreeP => 3 * w,
            Scheme4d::OnePlusWSquaredR => w * w + w,
        }
    }
}

impl std::fmt::Display for Scheme4d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An address mapping for a 4-D array of shape `w × w × w × w`.
///
/// All of a scheme's random values live in one flat table of exactly
/// [`Scheme4d::random_number_count`] entries, laid out in draw order:
///
/// | scheme | table |
/// |---|---|
/// | RAW | empty |
/// | RAS | `w³` row shifts, row `d3·w² + d2·w + d1` |
/// | 1P / R1P | `σ` |
/// | 3P | `σ`, then `τ`, then `υ` |
/// | w²P | `w²` permutations; `σ_{d3·w+d2}` is `[(d3·w+d2)·w ..][..w]` |
/// | 1P+w²R | `σ`, then `w²` shifts indexed by `d3·w + d2` |
///
/// RAS and w²P therefore share one lookup, `table[(d3·w+d2)·w + d1]`.
/// [`Mapping4d::redraw`] refills the table in place, so a Monte-Carlo
/// sweep that draws a fresh mapping per trial allocates only once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping4d {
    width: u32,
    scheme: Scheme4d,
    table: Vec<u32>,
}

impl Mapping4d {
    /// Build the given scheme with fresh randomness for width `w`: an
    /// empty mapping plus one [`Mapping4d::redraw`].
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidWidth`] if `w == 0`.
    pub fn new<R: Rng + ?Sized>(
        scheme: Scheme4d,
        rng: &mut R,
        width: usize,
    ) -> Result<Self, CoreError> {
        let mut mapping = Self {
            width: 0,
            scheme,
            table: Vec::new(),
        };
        mapping.redraw(scheme, rng, width)?;
        Ok(mapping)
    }

    /// Replace this mapping with a fresh draw of `scheme` at width `w`,
    /// reusing the table's allocation.
    ///
    /// Consumes `rng` exactly like [`Mapping4d::new`] — `w³` shift draws
    /// for RAS, one Durstenfeld shuffle per permutation (the draws of
    /// [`Permutation::random`](crate::Permutation::random)), `w²` shift
    /// draws after `σ` for 1P+w²R — and leaves a mapping equal to the one
    /// `new` would return. Scheme and width may change between calls.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidWidth`] if `w == 0`; the mapping is
    /// then left unchanged and `rng` untouched.
    pub fn redraw<R: Rng + ?Sized>(
        &mut self,
        scheme: Scheme4d,
        rng: &mut R,
        width: usize,
    ) -> Result<(), CoreError> {
        if width == 0 {
            return Err(CoreError::InvalidWidth {
                width,
                reason: "4-D mapping width must be positive",
            });
        }
        let w = width as u32;
        self.width = w;
        self.scheme = scheme;
        let table = &mut self.table;
        table.clear();
        match scheme {
            Scheme4d::Raw => {}
            Scheme4d::Ras => {
                table.extend((0..width * width * width).map(|_| rng.gen_range(0..w)));
            }
            Scheme4d::OneP | Scheme4d::R1P | Scheme4d::ThreeP | Scheme4d::WSquaredP => {
                table.resize(scheme.random_number_count(width), 0);
                for perm in table.chunks_exact_mut(width) {
                    for (i, v) in perm.iter_mut().enumerate() {
                        *v = i as u32;
                    }
                    shuffle(rng, perm);
                }
            }
            Scheme4d::OnePlusWSquaredR => {
                table.extend(0..w);
                shuffle(rng, table);
                table.extend((0..width * width).map(|_| rng.gen_range(0..w)));
            }
        }
        Ok(())
    }

    /// Array width `w` (all four dimensions have this extent).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width as usize
    }

    /// The scheme identifier.
    #[must_use]
    pub fn scheme(&self) -> Scheme4d {
        self.scheme
    }

    /// The shift function `f(d1, d2, d3)` (before the `mod w` of the bank
    /// computation).
    ///
    /// # Panics
    /// Panics if any coordinate is `≥ w`.
    #[inline]
    #[must_use]
    pub fn shift(&self, d1: u32, d2: u32, d3: u32) -> u32 {
        debug_assert!(d1 < self.width && d2 < self.width && d3 < self.width);
        let w = self.width as usize;
        let (d1, d2, d3) = (d1 as usize, d2 as usize, d3 as usize);
        let t = &self.table;
        match self.scheme {
            Scheme4d::Raw => 0,
            Scheme4d::Ras | Scheme4d::WSquaredP => t[(d3 * w + d2) * w + d1],
            Scheme4d::OneP => t[d1],
            // R1P: the same permutation applied to all three indexes.
            Scheme4d::R1P => t[d1] + t[d2] + t[d3],
            Scheme4d::ThreeP => t[d1] + t[w + d2] + t[2 * w + d3],
            Scheme4d::OnePlusWSquaredR => t[d1] + t[w + d3 * w + d2],
        }
    }

    /// Physical flat address of element `A[d3][d2][d1][d0]`.
    ///
    /// The rotation stays inside the element's own `w`-element row, so the
    /// mapping is a bijection on `0..w⁴`.
    #[inline]
    #[must_use]
    pub fn address(&self, d3: u32, d2: u32, d1: u32, d0: u32) -> u64 {
        let w = u64::from(self.width);
        let row_base = ((u64::from(d3) * w + u64::from(d2)) * w + u64::from(d1)) * w;
        row_base + u64::from(self.bank(d3, d2, d1, d0))
    }

    /// Bank of element `A[d3][d2][d1][d0]` — `(d0 + f(d1,d2,d3)) mod w`.
    ///
    /// Every shift function is bounded by `3(w−1)` (R1P/3P sum three
    /// values `< w`; the rest stay below `2w`), so `d0 + f < 4w` and the
    /// `mod` reduces to two branchless conditional subtractions instead
    /// of a hardware division — this sits on the per-lane path of the
    /// Table IV Monte-Carlo sweeps.
    #[inline]
    #[must_use]
    pub fn bank(&self, d3: u32, d2: u32, d1: u32, d0: u32) -> u32 {
        let w = u64::from(self.width);
        debug_assert!(d0 < self.width);
        let mut r = u64::from(d0) + u64::from(self.shift(d1, d2, d3));
        debug_assert!(r < 4 * w, "shift function exceeded its 3(w-1) bound");
        r -= 2 * w * u64::from(r >= 2 * w);
        r -= w * u64::from(r >= w);
        r as u32
    }

    /// Number of stored random values (Table IV accounting).
    #[must_use]
    pub fn random_number_count(&self) -> usize {
        self.scheme.random_number_count(self.width as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn all_schemes(w: usize, seed: u64) -> Vec<Mapping4d> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Scheme4d::all()
            .into_iter()
            .map(|s| Mapping4d::new(s, &mut rng, w).unwrap())
            .collect()
    }

    #[test]
    fn zero_width_rejected() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(matches!(
            Mapping4d::new(Scheme4d::Raw, &mut rng, 0),
            Err(CoreError::InvalidWidth { .. })
        ));
    }

    #[test]
    fn raw_is_identity_layout() {
        let mut rng = SmallRng::seed_from_u64(1);
        let m = Mapping4d::new(Scheme4d::Raw, &mut rng, 4).unwrap();
        assert_eq!(m.address(0, 0, 0, 0), 0);
        assert_eq!(m.address(0, 0, 0, 3), 3);
        assert_eq!(m.address(0, 0, 1, 0), 4);
        assert_eq!(m.address(0, 1, 0, 0), 16);
        assert_eq!(m.address(1, 0, 0, 0), 64);
        assert_eq!(m.bank(2, 3, 1, 2), 2);
    }

    #[test]
    fn every_scheme_is_bijective_small() {
        for m in all_schemes(4, 2) {
            let mut seen = HashSet::new();
            for d3 in 0..4 {
                for d2 in 0..4 {
                    for d1 in 0..4 {
                        for d0 in 0..4 {
                            let a = m.address(d3, d2, d1, d0);
                            assert!(a < 256, "{}: address {a} out of range", m.scheme());
                            assert!(seen.insert(a), "{}: address {a} duplicated", m.scheme());
                        }
                    }
                }
            }
            assert_eq!(seen.len(), 256);
        }
    }

    #[test]
    fn rotation_stays_in_row() {
        for m in all_schemes(8, 3) {
            for d3 in 0..8 {
                for d1 in 0..8 {
                    let base = m.address(d3, 5, d1, 0) / 8;
                    for d0 in 1..8 {
                        assert_eq!(
                            m.address(d3, 5, d1, d0) / 8,
                            base,
                            "{}: rotation escaped its row",
                            m.scheme()
                        );
                    }
                }
            }
        }
    }

    /// Stride-1 access (`d1` varies) is conflict-free for every permutation
    /// scheme — the Table IV "Stride1" row.
    #[test]
    fn stride1_conflict_free_for_permutation_schemes() {
        let w = 16;
        for m in all_schemes(w, 4) {
            let banks: HashSet<u32> = (0..w as u32).map(|d1| m.bank(3, 5, d1, 2)).collect();
            match m.scheme() {
                Scheme4d::OneP
                | Scheme4d::R1P
                | Scheme4d::ThreeP
                | Scheme4d::WSquaredP
                | Scheme4d::OnePlusWSquaredR => {
                    assert_eq!(
                        banks.len(),
                        w,
                        "{} stride1 must be conflict-free",
                        m.scheme()
                    );
                }
                Scheme4d::Raw => assert_eq!(banks.len(), 1),
                Scheme4d::Ras => {} // probabilistic; covered by the bench
            }
        }
    }

    /// Stride-2/3 access is conflict-free only for R1P and 3P; 1P collapses
    /// to one bank exactly like RAW.
    #[test]
    fn stride2_and_stride3_classes() {
        let w = 16;
        for m in all_schemes(w, 5) {
            let banks2: HashSet<u32> = (0..w as u32).map(|d2| m.bank(3, d2, 5, 2)).collect();
            let banks3: HashSet<u32> = (0..w as u32).map(|d3| m.bank(d3, 3, 5, 2)).collect();
            match m.scheme() {
                Scheme4d::R1P | Scheme4d::ThreeP => {
                    assert_eq!(banks2.len(), w, "{} stride2", m.scheme());
                    assert_eq!(banks3.len(), w, "{} stride3", m.scheme());
                }
                Scheme4d::Raw | Scheme4d::OneP => {
                    assert_eq!(banks2.len(), 1, "{} stride2", m.scheme());
                    assert_eq!(banks3.len(), 1, "{} stride3", m.scheme());
                }
                _ => {} // probabilistic schemes
            }
        }
    }

    /// Contiguous access (`d0` varies) is conflict-free under every scheme:
    /// the shift is constant along a row and rotation preserves distinctness.
    #[test]
    fn contiguous_always_conflict_free() {
        let w = 16;
        for m in all_schemes(w, 6) {
            let banks: HashSet<u32> = (0..w as u32).map(|d0| m.bank(7, 2, 9, d0)).collect();
            assert_eq!(banks.len(), w, "{} contiguous", m.scheme());
        }
    }

    /// The R1P weakness (paper §VII): index-permutations of `(a,b,c)` share
    /// the shift sum, hence the bank.
    #[test]
    fn r1p_is_symmetric_under_index_permutation() {
        let mut rng = SmallRng::seed_from_u64(7);
        let m = Mapping4d::new(Scheme4d::R1P, &mut rng, 16).unwrap();
        let (a, b, c) = (2, 9, 13);
        let d0 = 5;
        let reference = m.bank(a, b, c, d0);
        for (x, y, z) in [(a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)] {
            assert_eq!(m.bank(x, y, z, d0), reference);
        }
    }

    /// 3P does *not* have the R1P symmetry (with overwhelming probability a
    /// random instance breaks it; we use a fixed seed known to do so).
    #[test]
    fn threep_breaks_index_permutation_symmetry() {
        let mut rng = SmallRng::seed_from_u64(8);
        let m = Mapping4d::new(Scheme4d::ThreeP, &mut rng, 16).unwrap();
        let (a, b, c) = (2, 9, 13);
        let banks: HashSet<u32> = [
            (a, b, c),
            (a, c, b),
            (b, a, c),
            (b, c, a),
            (c, a, b),
            (c, b, a),
        ]
        .into_iter()
        .map(|(x, y, z)| m.bank(x, y, z, 5))
        .collect();
        assert!(
            banks.len() > 1,
            "3P should not map all index-permutations to one bank"
        );
    }

    #[test]
    fn random_number_counts_match_table4() {
        let w = 32;
        assert_eq!(Scheme4d::Raw.random_number_count(w), 0);
        assert_eq!(Scheme4d::Ras.random_number_count(w), 32 * 32 * 32);
        assert_eq!(Scheme4d::OneP.random_number_count(w), 32);
        assert_eq!(Scheme4d::R1P.random_number_count(w), 32);
        assert_eq!(Scheme4d::ThreeP.random_number_count(w), 96);
        assert_eq!(Scheme4d::WSquaredP.random_number_count(w), 32 * 32 * 32);
        assert_eq!(Scheme4d::OnePlusWSquaredR.random_number_count(w), 1056);
    }

    #[test]
    fn redraw_rejects_zero_width_and_keeps_the_mapping() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut m = Mapping4d::new(Scheme4d::ThreeP, &mut rng, 8).unwrap();
        let before = m.clone();
        let probe = rng.clone();
        assert!(matches!(
            m.redraw(Scheme4d::Ras, &mut rng, 0),
            Err(CoreError::InvalidWidth { .. })
        ));
        assert_eq!(m, before);
        assert_eq!(rng.gen::<u64>(), probe.clone().gen::<u64>());
    }

    #[test]
    fn scheme_display_names() {
        let names: Vec<&str> = Scheme4d::all().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["RAW", "RAS", "1P", "R1P", "3P", "w^2P", "1P+w^2R"]
        );
    }
}
