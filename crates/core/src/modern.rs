//! Modern deterministic baselines: XOR swizzling and row padding.
//!
//! The RAP paper predates today's standard practice; production GPU
//! libraries (CUTLASS, cuDNN kernels) avoid bank conflicts with two
//! *deterministic* layouts:
//!
//! * [`XorSwizzle`] — element `(i, j)` stored at physical column
//!   `j ⊕ (i mod w)` (power-of-two `w`). Rows are permuted by an XOR,
//!   which, like RAP's rotation, makes both contiguous and stride access
//!   conflict-free — with zero stored state and two ALU ops;
//! * [`Padded`] — the classic `+1` trick: a `w × (w+1)` physical
//!   allocation so that consecutive rows start in consecutive banks.
//!   Conflict-free for contiguous and stride at the cost of `w` wasted
//!   words per matrix.
//!
//! What they give up relative to RAP is exactly what the paper's
//! randomness buys: **worst-case guarantees against arbitrary access**.
//! Both layouts are fixed and public, so an adversarial (or simply
//! unlucky, data-dependent) access pattern can aim every request at one
//! bank *without any secret to learn* — the `modern_baselines` bench
//! measures this. RAP's `O(log w / log log w)` expectation holds for
//! every pattern because the adversary cannot know `σ`.

use crate::error::CoreError;
use crate::mapping::{MatrixMapping, Scheme};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// The XOR swizzle layout: `(i, j) ↦ i·w + (j ⊕ (i mod w))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct XorSwizzle {
    width: u32,
}

impl XorSwizzle {
    /// Build for a power-of-two width (XOR must stay inside the row).
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidWidth`] if `width` is not a power of
    /// two ≥ 2.
    pub fn new(width: usize) -> Result<Self, CoreError> {
        if width < 2 || !width.is_power_of_two() {
            return Err(CoreError::InvalidWidth {
                width,
                reason: "XOR swizzle requires a power-of-two width ≥ 2",
            });
        }
        Ok(Self {
            width: width as u32,
        })
    }
}

impl MatrixMapping for XorSwizzle {
    fn width(&self) -> usize {
        self.width as usize
    }

    #[inline]
    fn address(&self, i: u32, j: u32) -> u32 {
        debug_assert!(i < self.width && j < self.width);
        i * self.width + (j ^ (i % self.width))
    }

    fn scheme(&self) -> Scheme {
        Scheme::Xor
    }
}

/// The padded layout: `(i, j) ↦ i·(w+1) + j` — physical rows are `w+1`
/// words, so row starts drift one bank per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Padded {
    width: u32,
}

impl Padded {
    /// Build for any positive width.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidWidth`] if `width == 0`.
    pub fn new(width: usize) -> Result<Self, CoreError> {
        if width == 0 {
            return Err(CoreError::InvalidWidth {
                width,
                reason: "width must be positive",
            });
        }
        Ok(Self {
            width: width as u32,
        })
    }

    /// Wasted words relative to the in-place schemes (`w`, one per row,
    /// minus the final row's pad which is never allocated).
    #[must_use]
    pub fn overhead_words(&self) -> usize {
        self.width as usize - 1
    }
}

impl MatrixMapping for Padded {
    fn width(&self) -> usize {
        self.width as usize
    }

    #[inline]
    fn address(&self, i: u32, j: u32) -> u32 {
        debug_assert!(i < self.width && j < self.width);
        i * (self.width + 1) + j
    }

    fn scheme(&self) -> Scheme {
        Scheme::Padded
    }

    fn storage_words(&self) -> usize {
        // Last row needs no trailing pad.
        (self.width as usize) * (self.width as usize + 1) - 1
    }

    /// `(i·(w+1) + j) mod w = (i + j) mod w`: row `i` is rotated by `i`.
    fn row_shifts(&self) -> Option<Cow<'_, [u32]>> {
        Some(Cow::Owned((0..self.width).collect()))
    }
}

/// Construct any of the five schemes (paper three + modern two) behind a
/// trait object, drawing randomness where the scheme needs it.
///
/// # Panics
/// Panics if `width` is invalid for the scheme (zero; non-power-of-two
/// for XOR).
#[must_use]
pub fn build_mapping<R: rand::Rng + ?Sized>(
    scheme: Scheme,
    rng: &mut R,
    width: usize,
) -> Box<dyn MatrixMapping> {
    match scheme {
        Scheme::Raw | Scheme::Ras | Scheme::Rap => {
            Box::new(crate::mapping::RowShift::of_scheme(scheme, rng, width))
        }
        Scheme::Xor => Box::new(XorSwizzle::new(width).expect("valid width for XOR")),
        Scheme::Padded => Box::new(Padded::new(width).expect("valid width")),
    }
}

/// The instance-blind adversary against a **deterministic** scheme: with
/// the layout public, compute `w` logical cells whose physical addresses
/// share bank `bank` — no secrets required. Returns `None` for
/// randomized schemes (the blind adversary cannot solve them; that is
/// RAP's entire point).
#[must_use]
pub fn blind_adversary(scheme: Scheme, width: usize, bank: u32) -> Option<Vec<(u32, u32)>> {
    let w = width as u32;
    match scheme {
        // RAW: a column.
        Scheme::Raw => Some((0..w).map(|i| (i, bank)).collect()),
        // XOR: in row i, physical column c holds logical j = c ⊕ i; pick
        // the physical column in each row whose address is in `bank`.
        Scheme::Xor => Some(
            (0..w)
                .map(|i| {
                    let phys_col = bank; // i·w + phys_col ≡ phys_col (mod w)
                    (i, phys_col ^ (i % w))
                })
                .collect(),
        ),
        // Padded: address i(w+1)+j ≡ (i + j) mod w when w | (i(w+1)+j −
        // (i+j))… solve (i·(w+1) + j) mod w = bank ⇒ j ≡ bank − i (mod w),
        // valid whenever that j < w.
        Scheme::Padded => Some(
            (0..w)
                .map(|i| {
                    let target = (bank + w - (i * (w + 1)) % w) % w;
                    (i, target)
                })
                .collect(),
        ),
        // Randomized schemes: blind adversaries are reduced to guessing.
        Scheme::Ras | Scheme::Rap => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::congestion;
    use std::collections::HashSet;

    fn all_addresses(m: &dyn MatrixMapping) -> Vec<u32> {
        let w = m.width() as u32;
        (0..w)
            .flat_map(|i| (0..w).map(move |j| (i, j)))
            .map(|(i, j)| m.address(i, j))
            .collect()
    }

    #[test]
    fn xor_is_bijective_and_in_bounds() {
        for w in [2usize, 4, 8, 16, 32, 64] {
            let m = XorSwizzle::new(w).unwrap();
            let addrs = all_addresses(&m);
            let set: HashSet<u32> = addrs.iter().copied().collect();
            assert_eq!(set.len(), w * w);
            assert!(addrs.iter().all(|&a| (a as usize) < m.storage_words()));
            assert_eq!(m.storage_words(), w * w, "XOR is in-place");
        }
    }

    #[test]
    fn xor_rejects_bad_widths() {
        assert!(XorSwizzle::new(0).is_err());
        assert!(XorSwizzle::new(1).is_err());
        assert!(XorSwizzle::new(12).is_err());
    }

    #[test]
    fn xor_contiguous_and_stride_conflict_free() {
        let w = 32;
        let m = XorSwizzle::new(w).unwrap();
        for fixed in 0..w as u32 {
            let row: Vec<u64> = (0..w as u32)
                .map(|j| u64::from(m.address(fixed, j)))
                .collect();
            assert_eq!(congestion(w, &row), 1, "row {fixed}");
            let col: Vec<u64> = (0..w as u32)
                .map(|i| u64::from(m.address(i, fixed)))
                .collect();
            assert_eq!(congestion(w, &col), 1, "column {fixed}");
        }
    }

    #[test]
    fn padded_is_injective_and_sized() {
        for w in [1usize, 2, 5, 32] {
            let m = Padded::new(w).unwrap();
            let addrs = all_addresses(&m);
            let set: HashSet<u32> = addrs.iter().copied().collect();
            assert_eq!(set.len(), w * w);
            assert!(addrs.iter().all(|&a| (a as usize) < m.storage_words()));
            assert_eq!(m.storage_words(), w * (w + 1) - 1);
        }
    }

    #[test]
    fn padded_contiguous_and_stride_conflict_free() {
        let w = 32;
        let m = Padded::new(w).unwrap();
        for fixed in 0..w as u32 {
            let row: Vec<u64> = (0..w as u32)
                .map(|j| u64::from(m.address(fixed, j)))
                .collect();
            assert_eq!(congestion(w, &row), 1);
            let col: Vec<u64> = (0..w as u32)
                .map(|i| u64::from(m.address(i, fixed)))
                .collect();
            assert_eq!(congestion(w, &col), 1);
        }
    }

    /// Padding is the rotation `s_i = i`: its shifts reproduce every
    /// bank, and XOR, which permutes within a row, reports none.
    #[test]
    fn padded_is_the_rotation_by_the_row_index_and_xor_is_none() {
        for w in [1usize, 2, 5, 32, 257] {
            let m = Padded::new(w).unwrap();
            let shifts = m.row_shifts().expect("padding is a rotation");
            for i in 0..w as u32 {
                for j in 0..w as u32 {
                    assert_eq!(m.bank(i, j), (j + shifts[i as usize]) % w as u32);
                }
            }
        }
        assert!(XorSwizzle::new(32).unwrap().row_shifts().is_none());
    }

    #[test]
    fn padded_overhead_accounting() {
        let m = Padded::new(32).unwrap();
        assert_eq!(m.overhead_words(), 31);
        assert_eq!(m.storage_words() - 32 * 32, 31);
    }

    /// The headline: blind adversaries defeat every deterministic scheme
    /// with full congestion, but do not exist for RAS/RAP.
    #[test]
    fn blind_adversary_cracks_deterministic_schemes() {
        let w = 32;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        use rand::SeedableRng;
        for scheme in [Scheme::Raw, Scheme::Xor, Scheme::Padded] {
            let mapping = build_mapping(scheme, &mut rng, w);
            for bank in [0u32, 13, 31] {
                let warp = blind_adversary(scheme, w, bank).expect("deterministic");
                let addrs: Vec<u64> = warp
                    .iter()
                    .map(|&(i, j)| u64::from(mapping.address(i, j)))
                    .collect();
                assert_eq!(
                    congestion(w, &addrs),
                    w as u32,
                    "{scheme}: blind adversary must fully serialize bank {bank}"
                );
            }
        }
        assert!(blind_adversary(Scheme::Rap, w, 0).is_none());
        assert!(blind_adversary(Scheme::Ras, w, 0).is_none());
    }

    #[test]
    fn build_mapping_covers_all_schemes() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
        for scheme in Scheme::extended() {
            let m = build_mapping(scheme, &mut rng, 16);
            assert_eq!(m.scheme(), scheme);
            assert_eq!(m.width(), 16);
        }
    }
}
