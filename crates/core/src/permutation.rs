//! Random permutations of `{0, 1, …, w−1}`.
//!
//! The RAP technique is built on a permutation `σ` drawn uniformly from all
//! `w!` permutations (paper §IV). This module provides a validated
//! [`Permutation`] type with uniform sampling (Fisher–Yates), inversion,
//! composition, and cycle queries. The type invariant — every value in
//! `0..w` appears exactly once — is established at every constructor and
//! relied upon by the congestion proofs: it is exactly what makes stride
//! access conflict-free under RAP.

use crate::error::CoreError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A permutation of `{0, …, len−1}`, stored as the image table
/// `perm[i] = σ(i)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(try_from = "Vec<u32>", into = "Vec<u32>")]
pub struct Permutation {
    perm: Vec<u32>,
}

impl Permutation {
    /// The identity permutation of the given length.
    #[must_use]
    pub fn identity(len: usize) -> Self {
        Self {
            perm: (0..len as u32).collect(),
        }
    }

    /// Validate and wrap an explicit image table.
    ///
    /// # Errors
    /// Returns [`CoreError::NotAPermutation`] if `table` is not a bijection
    /// on `{0, …, table.len()−1}`.
    pub fn from_table(table: Vec<u32>) -> Result<Self, CoreError> {
        let n = table.len();
        let mut seen = vec![false; n];
        for &v in &table {
            let idx = v as usize;
            if idx >= n || seen[idx] {
                return Err(CoreError::NotAPermutation { len: n, value: v });
            }
            seen[idx] = true;
        }
        Ok(Self { perm: table })
    }

    /// Sample a permutation uniformly at random from all `len!`
    /// permutations (Fisher–Yates shuffle).
    #[must_use]
    pub fn random<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Self {
        let mut perm: Vec<u32> = (0..len as u32).collect();
        shuffle(rng, &mut perm);
        Self { perm }
    }

    /// A cyclic rotation by `k`: `σ(i) = (i + k) mod len`.
    ///
    /// Useful as a *non*-random permutation baseline: it satisfies the
    /// stride-conflict-freedom of RAP but gives no protection against
    /// adversarial access.
    #[must_use]
    pub fn rotation(len: usize, k: u32) -> Self {
        Self {
            perm: (0..len as u32)
                .map(|i| (i + k) % (len as u32).max(1))
                .collect(),
        }
    }

    /// Length `w` of the permuted domain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the domain is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// `σ(i)`.
    ///
    /// # Panics
    /// Panics if `i ≥ len`.
    #[inline]
    #[must_use]
    pub fn apply(&self, i: u32) -> u32 {
        self.perm[i as usize]
    }

    /// The underlying image table.
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        &self.perm
    }

    /// The inverse permutation `σ⁻¹`.
    #[must_use]
    pub fn inverse(&self) -> Self {
        let mut inv = vec![0u32; self.perm.len()];
        for (i, &v) in self.perm.iter().enumerate() {
            inv[v as usize] = i as u32;
        }
        Self { perm: inv }
    }

    /// Composition `(self ∘ other)(i) = self(other(i))`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[must_use]
    pub fn compose(&self, other: &Self) -> Self {
        assert_eq!(
            self.len(),
            other.len(),
            "cannot compose permutations of different lengths"
        );
        Self {
            perm: other.perm.iter().map(|&v| self.perm[v as usize]).collect(),
        }
    }

    /// Whether this is the identity.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.perm.iter().enumerate().all(|(i, &v)| i as u32 == v)
    }

    /// Number of fixed points (`σ(i) = i`).
    #[must_use]
    pub fn fixed_points(&self) -> usize {
        self.perm
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i as u32 == v)
            .count()
    }

    /// Cycle type: the sorted multiset of cycle lengths.
    #[must_use]
    pub fn cycle_lengths(&self) -> Vec<usize> {
        let n = self.perm.len();
        let mut seen = vec![false; n];
        let mut cycles = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut len = 0;
            let mut cur = start;
            while !seen[cur] {
                seen[cur] = true;
                cur = self.perm[cur] as usize;
                len += 1;
            }
            cycles.push(len);
        }
        cycles.sort_unstable();
        cycles
    }
}

/// Shuffle `table` in place with Durstenfeld's Fisher–Yates, uniform
/// over all `len!` orders. Applied to the identity it draws exactly like
/// [`Permutation::random`], which it implements; `Mapping4d` uses it to
/// refill its permutation tables without allocating.
#[inline]
pub(crate) fn shuffle<R: Rng + ?Sized>(rng: &mut R, table: &mut [u32]) {
    for i in (1..table.len()).rev() {
        let j = rng.gen_range(0..=i);
        table.swap(i, j);
    }
}

impl TryFrom<Vec<u32>> for Permutation {
    type Error = CoreError;
    fn try_from(v: Vec<u32>) -> Result<Self, CoreError> {
        Self::from_table(v)
    }
}

impl From<Permutation> for Vec<u32> {
    fn from(p: Permutation) -> Self {
        p.perm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn identity_properties() {
        let id = Permutation::identity(8);
        assert!(id.is_identity());
        assert_eq!(id.fixed_points(), 8);
        assert_eq!(id.inverse(), id);
        assert_eq!(id.cycle_lengths(), vec![1; 8]);
        for i in 0..8 {
            assert_eq!(id.apply(i), i);
        }
    }

    #[test]
    fn from_table_accepts_valid() {
        let p = Permutation::from_table(vec![2, 0, 3, 1]).unwrap();
        assert_eq!(p.apply(0), 2);
        assert_eq!(p.apply(2), 3);
    }

    #[test]
    fn from_table_rejects_duplicate() {
        let err = Permutation::from_table(vec![0, 0, 1]).unwrap_err();
        assert!(matches!(err, CoreError::NotAPermutation { .. }));
    }

    #[test]
    fn from_table_rejects_out_of_range() {
        let err = Permutation::from_table(vec![0, 3]).unwrap_err();
        assert!(matches!(err, CoreError::NotAPermutation { value: 3, .. }));
    }

    #[test]
    fn inverse_composes_to_identity() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..20 {
            let p = Permutation::random(&mut rng, 32);
            assert!(p.compose(&p.inverse()).is_identity());
            assert!(p.inverse().compose(&p).is_identity());
        }
    }

    #[test]
    fn rotation_by_zero_is_identity() {
        assert!(Permutation::rotation(16, 0).is_identity());
        assert!(Permutation::rotation(16, 16).is_identity());
    }

    #[test]
    fn rotation_shifts() {
        let r = Permutation::rotation(4, 1);
        assert_eq!(r.as_slice(), &[1, 2, 3, 0]);
        assert_eq!(r.cycle_lengths(), vec![4]);
    }

    #[test]
    fn random_is_valid_permutation() {
        let mut rng = SmallRng::seed_from_u64(3);
        for len in [1usize, 2, 16, 32, 256] {
            let p = Permutation::random(&mut rng, len);
            assert_eq!(p.len(), len);
            Permutation::from_table(p.as_slice().to_vec()).expect("valid");
        }
    }

    #[test]
    fn empty_permutation() {
        let p = Permutation::identity(0);
        assert!(p.is_empty());
        assert!(p.is_identity());
        assert_eq!(p.cycle_lengths(), Vec::<usize>::new());
    }

    /// Fisher-Yates must be uniform: over many draws of a length-4
    /// permutation, each of the 24 permutations appears with frequency
    /// ~1/24.
    #[test]
    fn sampling_is_approximately_uniform() {
        let mut rng = SmallRng::seed_from_u64(42);
        let trials = 48_000;
        let mut counts: HashMap<Vec<u32>, u32> = HashMap::new();
        for _ in 0..trials {
            let p = Permutation::random(&mut rng, 4);
            *counts.entry(p.as_slice().to_vec()).or_default() += 1;
        }
        assert_eq!(counts.len(), 24, "all 24 permutations should occur");
        let expected = trials as f64 / 24.0;
        for (perm, count) in counts {
            let dev = (f64::from(count) - expected).abs() / expected;
            assert!(
                dev < 0.1,
                "permutation {perm:?} occurred {count} times, expected ~{expected}"
            );
        }
    }

    #[test]
    fn compose_associative_sample() {
        let mut rng = SmallRng::seed_from_u64(5);
        let a = Permutation::random(&mut rng, 16);
        let b = Permutation::random(&mut rng, 16);
        let c = Permutation::random(&mut rng, 16);
        assert_eq!(a.compose(&b).compose(&c), a.compose(&b.compose(&c)));
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn compose_length_mismatch_panics() {
        let a = Permutation::identity(3);
        let b = Permutation::identity(4);
        let _ = a.compose(&b);
    }

    #[test]
    fn cycle_lengths_sum_to_len() {
        let mut rng = SmallRng::seed_from_u64(9);
        let p = Permutation::random(&mut rng, 100);
        assert_eq!(p.cycle_lengths().iter().sum::<usize>(), 100);
    }
}
