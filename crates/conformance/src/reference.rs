//! Independent naive reference implementations.
//!
//! Every oracle compares an optimized path against one of these. They are
//! written with *different algorithms and data structures* than any
//! production path (hash maps instead of sorting or open addressing), so
//! a shared bug cannot hide on both sides of a comparison.

use rand::Rng;
use rap_core::multidim::Scheme4d;
use std::collections::{HashMap, HashSet};

/// Congestion of one warp access: the maximum, over banks, of the number
/// of *distinct* addresses (CRCW merge) mapping to that bank.
///
/// # Panics
/// Panics if `width == 0`.
#[must_use]
pub fn naive_congestion(width: usize, addresses: &[u64]) -> u32 {
    naive_bank_loads(width, addresses)
        .into_values()
        .max()
        .unwrap_or(0)
}

/// Per-bank distinct-address counts (only banks with load ≥ 1 appear).
///
/// # Panics
/// Panics if `width == 0`.
#[must_use]
pub fn naive_bank_loads(width: usize, addresses: &[u64]) -> HashMap<u32, u32> {
    assert!(width > 0, "machine width must be positive");
    let unique: HashSet<u64> = addresses.iter().copied().collect();
    let mut loads: HashMap<u32, u32> = HashMap::new();
    for a in unique {
        *loads.entry((a % width as u64) as u32).or_insert(0) += 1;
    }
    loads
}

/// Number of distinct addresses after CRCW merging.
#[must_use]
pub fn naive_unique_requests(addresses: &[u64]) -> usize {
    addresses.iter().copied().collect::<HashSet<u64>>().len()
}

/// Number of distinct memory rows (`address / width`) touched — the UMM
/// stage count of one merged warp access.
///
/// # Panics
/// Panics if `width == 0`.
#[must_use]
pub fn naive_distinct_rows(width: usize, addresses: &[u64]) -> u32 {
    assert!(width > 0, "machine width must be positive");
    let rows: HashSet<u64> = addresses.iter().map(|&a| a / width as u64).collect();
    rows.len() as u32
}

/// Out-of-place transpose of a row-major `w × w` matrix — the reference
/// every transpose algorithm must match.
///
/// # Panics
/// Panics if `data.len() != w²`.
#[must_use]
pub fn naive_transpose(w: usize, data: &[u64]) -> Vec<u64> {
    assert_eq!(data.len(), w * w, "matrix data must have w² elements");
    let mut out = vec![0u64; w * w];
    for i in 0..w {
        for j in 0..w {
            out[j * w + i] = data[i * w + j];
        }
    }
    out
}

/// A Table IV shift function built the way the paper states it: one
/// permutation table per permutation and one shift list per family of
/// random shifts, each drawn from `rng` in the order the schemes name
/// them (RAS: `w³` row shifts; 1P, R1P: `σ`; 3P: `σ, τ, υ`; w²P: `w²`
/// permutations; 1P+w²R: `σ`, then `w²` shifts). Shifts are
/// `gen_range(0..w)` draws and permutations are Durstenfeld shuffles of
/// the identity with `gen_range(0..=i)` swaps, written out here rather
/// than shared with `rap-core`.
#[derive(Debug, Clone)]
pub struct NaiveShift4d {
    scheme: Scheme4d,
    w: usize,
    perms: Vec<Vec<u32>>,
    shifts: Vec<u32>,
}

impl NaiveShift4d {
    /// Draw a fresh instance of `scheme` at width `w` (`w > 0`).
    pub fn draw<R: Rng + ?Sized>(scheme: Scheme4d, rng: &mut R, w: usize) -> Self {
        let perm = |rng: &mut R| {
            let mut p: Vec<u32> = (0..w as u32).collect();
            for i in (1..w).rev() {
                let j = rng.gen_range(0..=i);
                p.swap(i, j);
            }
            p
        };
        let shifts = |rng: &mut R, n: usize| -> Vec<u32> {
            (0..n).map(|_| rng.gen_range(0..w as u32)).collect()
        };
        let (perms, shifts) = match scheme {
            Scheme4d::Raw => (Vec::new(), Vec::new()),
            Scheme4d::Ras => (Vec::new(), shifts(rng, w * w * w)),
            Scheme4d::OneP | Scheme4d::R1P => (vec![perm(rng)], Vec::new()),
            Scheme4d::ThreeP => {
                let sigma = perm(rng);
                let tau = perm(rng);
                let upsilon = perm(rng);
                (vec![sigma, tau, upsilon], Vec::new())
            }
            Scheme4d::WSquaredP => ((0..w * w).map(|_| perm(rng)).collect(), Vec::new()),
            Scheme4d::OnePlusWSquaredR => {
                let sigma = perm(rng);
                (vec![sigma], shifts(rng, w * w))
            }
        };
        Self {
            scheme,
            w,
            perms,
            shifts,
        }
    }

    /// The shift function `f(d1, d2, d3)` of the drawn instance.
    ///
    /// # Panics
    /// Panics if a coordinate is `≥ w`.
    #[must_use]
    pub fn shift(&self, d1: u32, d2: u32, d3: u32) -> u32 {
        let (w, d1, d2, d3) = (self.w, d1 as usize, d2 as usize, d3 as usize);
        let p = &self.perms;
        match self.scheme {
            Scheme4d::Raw => 0,
            Scheme4d::Ras => self.shifts[(d3 * w + d2) * w + d1],
            Scheme4d::OneP => p[0][d1],
            Scheme4d::R1P => p[0][d1] + p[0][d2] + p[0][d3],
            Scheme4d::ThreeP => p[0][d1] + p[1][d2] + p[2][d3],
            Scheme4d::WSquaredP => p[d3 * w + d2][d1],
            Scheme4d::OnePlusWSquaredR => p[0][d1] + self.shifts[d3 * w + d2],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn congestion_paper_figure2() {
        assert_eq!(naive_congestion(4, &[0, 5, 10, 15]), 1);
        assert_eq!(naive_congestion(4, &[0, 4, 8, 12]), 4);
        assert_eq!(naive_congestion(4, &[7, 7, 7, 7]), 1);
        assert_eq!(naive_congestion(4, &[]), 0);
    }

    #[test]
    fn rows_and_uniques() {
        assert_eq!(naive_distinct_rows(4, &[0, 1, 2, 3]), 1);
        assert_eq!(naive_distinct_rows(4, &[0, 5, 10, 15]), 4);
        assert_eq!(naive_unique_requests(&[9, 9, 9, 2]), 2);
    }

    #[test]
    fn transpose_is_involutive() {
        let data: Vec<u64> = (0..25).collect();
        assert_eq!(naive_transpose(5, &naive_transpose(5, &data)), data);
        assert_eq!(naive_transpose(2, &[1, 2, 3, 4]), vec![1, 3, 2, 4]);
    }
}
