//! Address mapping schemes for a `w × w` matrix in banked shared memory.
//!
//! The paper compares three ways to place logical element `(i, j)` of a
//! `w × w` matrix into the single address space of a DMM with `w` banks
//! (bank of address `a` is `a mod w`):
//!
//! * **RAW** — `a = i·w + j`: the straightforward layout. Column-major
//!   (stride) access by a warp hits one bank `w` times.
//! * **RAS** — `a = i·w + (j + r_i) mod w` with `r_0..r_{w−1}` i.i.d.
//!   uniform in `0..w` (prior work, ref \[7\] of the paper). Any fixed access
//!   pattern behaves like balls-into-bins, but stride access still
//!   conflicts with high probability.
//! * **RAP** — `a = i·w + (j + σ_i) mod w` with `σ` a uniform random
//!   *permutation*. Row `i` is rotated by `σ_i`; because the `σ_i` are
//!   pairwise distinct, a stride (column) access `A\[0\][j] … A[w−1][j]`
//!   lands in banks `(j+σ_0) … (j+σ_{w−1}) mod w`, all distinct —
//!   congestion 1, deterministically (paper Theorem 2).
//!
//! All three are *row-rotation* mappings differing only in the shift table,
//! so they share the [`RowShift`] representation; [`MatrixMapping`] is the
//! object-safe interface used by the access generators, the transpose
//! kernels, and the GPU simulator.

use crate::error::CoreError;
use crate::permutation::Permutation;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Identifier of one of the paper's mapping schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// Straightforward layout (`RAW access to memory`).
    Raw,
    /// Random address shift — i.i.d. random per-row rotations.
    Ras,
    /// Random address permute-shift — per-row rotations from one random
    /// permutation (this paper's contribution).
    Rap,
    /// Deterministic XOR swizzle (`j ^ i`), the scheme used by modern
    /// GPU libraries (e.g. CUTLASS). Not part of the paper; see
    /// [`crate::modern`].
    Xor,
    /// Row padding (`w + 1` physical columns), the classic `+1` trick.
    /// Not part of the paper; see [`crate::modern`].
    Padded,
}

impl Scheme {
    /// Canonical display name used in tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Raw => "RAW",
            Scheme::Ras => "RAS",
            Scheme::Rap => "RAP",
            Scheme::Xor => "XOR",
            Scheme::Padded => "Padded",
        }
    }

    /// The paper's three schemes, in its column order. The modern
    /// baselines ([`Scheme::Xor`], [`Scheme::Padded`]) are extensions and
    /// are deliberately excluded — use [`Scheme::extended`] for all five.
    #[must_use]
    pub fn all() -> [Scheme; 3] {
        [Scheme::Raw, Scheme::Ras, Scheme::Rap]
    }

    /// All five schemes: the paper's three plus the modern deterministic
    /// baselines.
    #[must_use]
    pub fn extended() -> [Scheme; 5] {
        [
            Scheme::Raw,
            Scheme::Ras,
            Scheme::Rap,
            Scheme::Xor,
            Scheme::Padded,
        ]
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Scheme {
    type Err = String;

    /// Parse a scheme name, case-insensitively (`rap`, `RAP`, `Padded`, …).
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "raw" => Ok(Scheme::Raw),
            "ras" => Ok(Scheme::Ras),
            "rap" => Ok(Scheme::Rap),
            "xor" => Ok(Scheme::Xor),
            "padded" => Ok(Scheme::Padded),
            other => Err(format!(
                "unknown scheme '{other}' (expected raw|ras|rap|xor|padded)"
            )),
        }
    }
}

/// Object-safe interface of a `w × w` matrix address mapping.
pub trait MatrixMapping {
    /// Matrix dimension / number of banks / warp width `w`.
    fn width(&self) -> usize;

    /// Physical flat address of logical element `(i, j)`.
    ///
    /// Implementations must be injective on `0 ≤ i, j < w` and must map
    /// into `0..storage_words()`.
    fn address(&self, i: u32, j: u32) -> u32;

    /// Words of physical storage the matrix occupies — `w²` for in-place
    /// schemes; padded layouts need more (the classic space/conflict
    /// trade-off the paper's technique avoids).
    fn storage_words(&self) -> usize {
        self.width() * self.width()
    }

    /// Bank of logical element `(i, j)` — `address(i, j) mod w`.
    fn bank(&self, i: u32, j: u32) -> u32 {
        self.address(i, j) % self.width() as u32
    }

    /// Display name of the scheme.
    fn scheme(&self) -> Scheme;

    /// The row shifts `s_i` when the layout is a row rotation — element
    /// `(i, j)` in bank `(j + s_i) mod w` — and `None` otherwise. Within
    /// one bank of a rotation the row tells the addresses apart, which is
    /// all the fused Monte-Carlo trial loop needs to serve the layout.
    fn row_shifts(&self) -> Option<Cow<'_, [u32]>> {
        None
    }
}

/// A row-rotation mapping: element `(i, j)` is stored at
/// `i·w + (j + shift[i]) mod w`.
///
/// This single representation covers RAW (`shift ≡ 0`), RAS (i.i.d.
/// shifts), and RAP (shifts forming a permutation).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowShift {
    width: u32,
    shifts: Vec<u32>,
    scheme: Scheme,
}

impl RowShift {
    /// The RAW mapping: no rotation.
    #[must_use]
    pub fn raw(width: usize) -> Self {
        Self {
            width: width as u32,
            shifts: vec![0; width],
            scheme: Scheme::Raw,
        }
    }

    /// A RAS mapping with fresh i.i.d. uniform shifts.
    #[must_use]
    pub fn ras<R: Rng + ?Sized>(rng: &mut R, width: usize) -> Self {
        let w = width as u32;
        Self {
            width: w,
            shifts: (0..width).map(|_| rng.gen_range(0..w.max(1))).collect(),
            scheme: Scheme::Ras,
        }
    }

    /// A RAS mapping from explicit shifts.
    ///
    /// # Errors
    /// Returns [`CoreError::ShiftOutOfRange`] if any shift is `≥ width`,
    /// or [`CoreError::InvalidWidth`] if `shifts.len() != width`.
    pub fn ras_from(width: usize, shifts: Vec<u32>) -> Result<Self, CoreError> {
        if shifts.len() != width {
            return Err(CoreError::InvalidWidth {
                width,
                reason: "shift table length must equal width",
            });
        }
        let w = width as u32;
        if let Some(&bad) = shifts.iter().find(|&&s| s >= w) {
            return Err(CoreError::ShiftOutOfRange {
                shift: bad,
                max: w.saturating_sub(1),
            });
        }
        Ok(Self {
            width: w,
            shifts,
            scheme: Scheme::Ras,
        })
    }

    /// A RAP mapping with a fresh uniform random permutation.
    #[must_use]
    pub fn rap<R: Rng + ?Sized>(rng: &mut R, width: usize) -> Self {
        Self::rap_from(Permutation::random(rng, width))
    }

    /// A RAP mapping from an explicit permutation `σ` (row `i` is rotated
    /// by `σ(i)`).
    #[must_use]
    pub fn rap_from(sigma: Permutation) -> Self {
        Self {
            width: sigma.len() as u32,
            shifts: sigma.into(),
            scheme: Scheme::Rap,
        }
    }

    /// Construct the row-shift scheme named by `scheme` with fresh
    /// randomness.
    ///
    /// # Panics
    /// Panics for [`Scheme::Xor`] and [`Scheme::Padded`], which are not
    /// row-shift mappings — construct them via [`crate::modern`].
    #[must_use]
    pub fn of_scheme<R: Rng + ?Sized>(scheme: Scheme, rng: &mut R, width: usize) -> Self {
        match scheme {
            Scheme::Raw => Self::raw(width),
            Scheme::Ras => Self::ras(rng, width),
            Scheme::Rap => Self::rap(rng, width),
            Scheme::Xor | Scheme::Padded => {
                panic!("{scheme} is not a row-shift scheme; see rap_core::modern")
            }
        }
    }

    /// The per-row shift table.
    #[must_use]
    pub fn shifts(&self) -> &[u32] {
        &self.shifts
    }

    /// The shift applied to row `i`.
    #[inline]
    #[must_use]
    pub fn shift_of_row(&self, i: u32) -> u32 {
        self.shifts[i as usize]
    }

    /// Logical column stored at physical column `c` of row `i` — the
    /// inverse rotation, `(c − shift[i]) mod w`.
    #[inline]
    #[must_use]
    pub fn logical_column(&self, i: u32, c: u32) -> u32 {
        debug_assert!(c < self.width);
        (c + self.width - self.shifts[i as usize] % self.width) % self.width
    }

    /// Number of random values the scheme draws (Table IV accounting):
    /// 0 for RAW, `w` for RAS and RAP.
    #[must_use]
    pub fn random_number_count(&self) -> usize {
        match self.scheme {
            Scheme::Ras | Scheme::Rap => self.width as usize,
            // RowShift only ever carries Raw/Ras/Rap; the deterministic
            // modern baselines store nothing either way.
            _ => 0,
        }
    }
}

impl MatrixMapping for RowShift {
    fn width(&self) -> usize {
        self.width as usize
    }

    #[inline]
    fn address(&self, i: u32, j: u32) -> u32 {
        debug_assert!(i < self.width && j < self.width, "({i},{j}) out of range");
        let w = self.width;
        let s = self.shifts[i as usize];
        // A division costs tens of cycles; drawn shifts are below `w`, so
        // one conditional subtraction reduces the sum.
        let c = if s < w { j + s } else { (j + s) % w };
        i * w + c - w * u32::from(c >= w)
    }

    fn scheme(&self) -> Scheme {
        self.scheme
    }

    fn row_shifts(&self) -> Option<Cow<'_, [u32]>> {
        Some(Cow::Borrowed(&self.shifts))
    }
}

/// A bare shift table `s` (a synthesized layout, `w = s.len()`) is the
/// row rotation [`RowShift`] would build from it, served without the
/// copy and re-validation of [`RowShift::ras_from`].
impl MatrixMapping for &[u32] {
    fn width(&self) -> usize {
        self.len()
    }

    fn address(&self, i: u32, j: u32) -> u32 {
        let w = self.len() as u32;
        i * w + (j + self[i as usize] % w) % w
    }

    fn scheme(&self) -> Scheme {
        Scheme::Ras
    }

    fn row_shifts(&self) -> Option<Cow<'_, [u32]>> {
        Some(Cow::Borrowed(self))
    }
}

/// A row rotation ([`MatrixMapping::row_shifts`]) prepared for the fused
/// Monte-Carlo loop, for `w ≤ 256`: the `w` row shifts, reduced modulo
/// `w`, stored as bytes.
///
/// Logical element `(i, j)` sits in physical column
/// `c = (j + shift[i]) mod w`; with both terms below `w` the reduction is
/// one conditional subtract (`c − w·[c ≥ w]`), so a lane costs one byte
/// read and no division. Since the row base `i·w` is a multiple of `w`,
/// `c` is simultaneously the **bank** of the element and the low part of
/// its address (`address = i·w + c`).
///
/// Sampled shifts are redrawn every trial, so the row is rebuilt per trial:
/// `w` bytes, against the `w²`-byte rotation table (64 KB at `w = 256`)
/// this type used to hold. Its allocation is cached across trials via
/// [`ComposedRowShift::compose`] on a persistent value — `rap-access`'s
/// `AccessScratch` holds one per worker.
#[derive(Debug, Clone, Default)]
pub struct ComposedRowShift {
    width: u32,
    shifts: Vec<u8>,
}

impl ComposedRowShift {
    /// Widest mapping served: a reduced shift (< 256) always fits a
    /// byte, and the row index stays within the 256-tag range of the
    /// wide bit-parallel congestion kernel
    /// ([`crate::WideCompactCongestion`]).
    pub const MAX_WIDTH: usize = 256;

    /// Store the row shifts of a width-`shifts.len()` rotation, reusing
    /// the existing allocation. Returns `false` (leaving the row
    /// unusable) when the width is 0 or exceeds `MAX_WIDTH` — callers
    /// fall back to the unfused per-address arithmetic.
    pub fn compose(&mut self, shifts: &[u32]) -> bool {
        if shifts.is_empty() || shifts.len() > Self::MAX_WIDTH {
            self.width = 0;
            return false;
        }
        let w = shifts.len() as u32;
        self.width = w;
        self.shifts.clear();
        // Every constructor keeps shifts below `w`; the `%` only guards
        // a deserialized table, and the branch is never taken otherwise.
        let reduce = |s: u32| if s < w { s } else { s % w };
        self.shifts.extend(shifts.iter().map(|&s| reduce(s) as u8));
        true
    }

    /// Matrix dimension of the composed mapping (0 when unusable).
    #[inline]
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Bank of logical element `(i, j)`, `j < w`: `(j + shift[i]) mod w`
    /// by one byte read and a conditional subtract.
    ///
    /// # Panics
    /// Panics if `i ≥ w` (via the slice index).
    #[inline]
    #[must_use]
    pub fn bank(&self, i: u32, j: u32) -> u32 {
        debug_assert!(j < self.width, "column {j} out of range");
        let c = j + u32::from(self.shifts[i as usize]);
        c - self.width * u32::from(c >= self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn scheme_names_parse_case_insensitively_and_round_trip() {
        for scheme in Scheme::extended() {
            assert_eq!(scheme.to_string().parse::<Scheme>(), Ok(scheme));
            assert_eq!(
                scheme.name().to_ascii_lowercase().parse::<Scheme>(),
                Ok(scheme)
            );
        }
        assert_eq!("pAdDeD".parse::<Scheme>(), Ok(Scheme::Padded));
        assert_eq!(
            "ZZZ".parse::<Scheme>(),
            Err("unknown scheme 'zzz' (expected raw|ras|rap|xor|padded)".to_string())
        );
        assert!("adaptive".parse::<Scheme>().is_err());
    }

    fn assert_bijective(m: &dyn MatrixMapping) {
        let w = m.width() as u32;
        let addrs: HashSet<u32> = (0..w)
            .flat_map(|i| (0..w).map(move |j| (i, j)))
            .map(|(i, j)| m.address(i, j))
            .collect();
        assert_eq!(addrs.len(), (w * w) as usize, "mapping must be injective");
        assert!(addrs.iter().all(|&a| a < w * w), "mapping must stay in w²");
    }

    #[test]
    fn raw_is_row_major() {
        let m = RowShift::raw(4);
        assert_eq!(m.address(0, 0), 0);
        assert_eq!(m.address(0, 3), 3);
        assert_eq!(m.address(2, 1), 9);
        assert_eq!(m.bank(2, 1), 1);
        assert_eq!(m.scheme(), Scheme::Raw);
        assert_bijective(&m);
    }

    #[test]
    fn raw_stride_hits_one_bank() {
        let m = RowShift::raw(8);
        let banks: HashSet<u32> = (0..8).map(|i| m.bank(i, 3)).collect();
        assert_eq!(banks.len(), 1, "RAW column access must hit a single bank");
    }

    #[test]
    fn rap_stride_is_conflict_free() {
        let mut rng = SmallRng::seed_from_u64(1);
        for w in [2usize, 4, 16, 32, 64] {
            let m = RowShift::rap(&mut rng, w);
            for j in 0..w as u32 {
                let banks: HashSet<u32> = (0..w as u32).map(|i| m.bank(i, j)).collect();
                assert_eq!(
                    banks.len(),
                    w,
                    "RAP stride column {j} must be conflict-free"
                );
            }
        }
    }

    #[test]
    fn any_scheme_contiguous_is_conflict_free() {
        let mut rng = SmallRng::seed_from_u64(2);
        for scheme in Scheme::all() {
            let m = RowShift::of_scheme(scheme, &mut rng, 32);
            for i in 0..32u32 {
                let banks: HashSet<u32> = (0..32u32).map(|j| m.bank(i, j)).collect();
                assert_eq!(banks.len(), 32, "{scheme} row {i} must be conflict-free");
            }
        }
    }

    #[test]
    fn all_schemes_are_bijective() {
        let mut rng = SmallRng::seed_from_u64(3);
        for scheme in Scheme::all() {
            for w in [1usize, 2, 16, 33] {
                let m = RowShift::of_scheme(scheme, &mut rng, w);
                assert_bijective(&m);
            }
        }
    }

    #[test]
    fn paper_figure6_example() {
        // Figure 6 of the paper: w = 4, σ = (2, 0, 3, 1).
        // Row 0 rotated by 2: logical (0,0) lands at physical column 2.
        let sigma = Permutation::from_table(vec![2, 0, 3, 1]).unwrap();
        let m = RowShift::rap_from(sigma);
        assert_eq!(m.address(0, 0), 2);
        assert_eq!(m.address(0, 1), 3);
        assert_eq!(m.address(0, 2), 0);
        assert_eq!(m.address(0, 3), 1);
        // Row 1 rotated by 0: untouched.
        assert_eq!(m.address(1, 0), 4);
        // Row 2 rotated by 3.
        assert_eq!(m.address(2, 0), 8 + 3);
        assert_eq!(m.address(2, 1), 8);
        // Row 3 rotated by 1.
        assert_eq!(m.address(3, 3), 12);
    }

    #[test]
    fn logical_column_inverts_rotation() {
        let mut rng = SmallRng::seed_from_u64(4);
        for scheme in Scheme::all() {
            let m = RowShift::of_scheme(scheme, &mut rng, 16);
            for i in 0..16u32 {
                for j in 0..16u32 {
                    let a = m.address(i, j);
                    let phys_col = a % 16;
                    assert_eq!(a / 16, i, "row is preserved");
                    assert_eq!(m.logical_column(i, phys_col), j);
                }
            }
        }
    }

    #[test]
    fn ras_from_validates() {
        assert!(RowShift::ras_from(3, vec![0, 1, 2]).is_ok());
        assert!(matches!(
            RowShift::ras_from(3, vec![0, 1]),
            Err(CoreError::InvalidWidth { .. })
        ));
        assert!(matches!(
            RowShift::ras_from(3, vec![0, 1, 3]),
            Err(CoreError::ShiftOutOfRange { shift: 3, max: 2 })
        ));
    }

    #[test]
    fn random_number_counts() {
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(RowShift::raw(32).random_number_count(), 0);
        assert_eq!(RowShift::ras(&mut rng, 32).random_number_count(), 32);
        assert_eq!(RowShift::rap(&mut rng, 32).random_number_count(), 32);
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::Raw.to_string(), "RAW");
        assert_eq!(Scheme::Ras.to_string(), "RAS");
        assert_eq!(Scheme::Rap.to_string(), "RAP");
        assert_eq!(Scheme::Xor.to_string(), "XOR");
        assert_eq!(Scheme::Padded.to_string(), "Padded");
    }

    #[test]
    fn extended_contains_all() {
        assert_eq!(Scheme::extended().len(), 5);
        assert_eq!(&Scheme::extended()[..3], &Scheme::all());
    }

    #[test]
    #[should_panic(expected = "not a row-shift scheme")]
    fn of_scheme_rejects_modern_baselines() {
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = RowShift::of_scheme(Scheme::Xor, &mut rng, 8);
    }

    #[test]
    fn default_storage_is_square() {
        assert_eq!(RowShift::raw(8).storage_words(), 64);
    }

    /// The composed row must reproduce `bank` exactly for every scheme
    /// and width it serves, including the 63/64 boundary of the narrow
    /// congestion kernel and the 255/256 top of the row.
    #[test]
    fn composed_row_matches_unfused_arithmetic() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut composed = ComposedRowShift::default();
        for scheme in Scheme::all() {
            for w in [
                1usize, 2, 7, 16, 32, 33, 63, 64, 65, 127, 128, 129, 200, 255, 256,
            ] {
                let m = RowShift::of_scheme(scheme, &mut rng, w);
                assert!(composed.compose(m.shifts()), "{scheme} w={w} must compose");
                assert_eq!(composed.width(), w as u32);
                for i in 0..w as u32 {
                    for j in 0..w as u32 {
                        assert_eq!(
                            composed.bank(i, j),
                            m.bank(i, j),
                            "{scheme} w={w} ({i},{j}) bank"
                        );
                    }
                }
            }
        }
    }

    /// A shift table that bypassed the constructors (shifts ≥ `w`, as a
    /// deserialized one may hold) is reduced modulo `w` like
    /// [`RowShift::address`] reduces it.
    #[test]
    fn composed_row_reduces_out_of_range_shifts() {
        let m = RowShift {
            width: 5,
            shifts: vec![5, 7, 0, 1_000_003, 4_000_000_007],
            scheme: Scheme::Ras,
        };
        let mut composed = ComposedRowShift::default();
        assert!(composed.compose(m.shifts()));
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(composed.bank(i, j), m.bank(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn composed_row_rejects_wide_mappings_and_recovers() {
        let mut rng = SmallRng::seed_from_u64(10);
        let mut composed = ComposedRowShift::default();
        let wide = RowShift::rap(&mut rng, 257);
        assert!(!composed.compose(wide.shifts()));
        assert_eq!(composed.width(), 0, "unusable");
        assert!(!composed.compose(&[]));
        // The same value composes a servable mapping afterwards (the
        // allocation is reused, stale bytes must not leak).
        let narrow = RowShift::rap(&mut rng, 8);
        assert!(composed.compose(narrow.shifts()));
        for idx in 0..64u32 {
            assert_eq!(
                composed.bank(idx / 8, idx % 8),
                narrow.bank(idx / 8, idx % 8)
            );
        }
    }

    /// A bare shift table is the [`RowShift`] built from it, address for
    /// address, and both report the same shifts.
    #[test]
    fn a_shift_table_maps_like_its_row_shift() {
        let mut rng = SmallRng::seed_from_u64(11);
        for w in [1usize, 5, 32, 257] {
            let m = RowShift::ras(&mut rng, w);
            let table: &[u32] = m.shifts();
            assert_eq!(table.width(), w);
            assert_eq!(table.row_shifts().as_deref(), Some(m.shifts()));
            assert_eq!(m.row_shifts().as_deref(), Some(table));
            for i in 0..w as u32 {
                for j in 0..w as u32 {
                    assert_eq!(table.address(i, j), m.address(i, j), "w={w} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn rap_shifts_form_permutation() {
        let mut rng = SmallRng::seed_from_u64(6);
        let m = RowShift::rap(&mut rng, 64);
        let distinct: HashSet<u32> = m.shifts().iter().copied().collect();
        assert_eq!(distinct.len(), 64);
    }
}
