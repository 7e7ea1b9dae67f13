//! The three matrix transpose algorithms (paper §III, Figure 5).
//!
//! All three transpose a `w × w` matrix `a` into a second matrix `b` using
//! `w²` threads, one element per thread (thread `t` has `i = t / w`,
//! `j = t mod w`):
//!
//! * **CRSW** (Contiguous Read, Stride Write): `b[j][i] = a[i][j]` —
//!   reads rows, writes columns;
//! * **SRCW** (Stride Read, Contiguous Write): `b[i][j] = a[j][i]` —
//!   reads columns, writes rows;
//! * **DRDW** (Diagonal Read, Diagonal Write):
//!   `b[j][(i+j) mod w] = a[(i+j) mod w][j]` — both sides sweep a
//!   diagonal, so *under RAW* both are conflict-free. DRDW is the
//!   "ingenious" hand-optimized algorithm a developer must invent without
//!   RAP; CRSW/SRCW are the naive ones RAP rescues.
//!
//! Each algorithm is a two-phase [`Program`]: a read phase capturing
//! `a[..]` into per-thread registers and a write phase storing them into
//! `b`. The matrices live at `base_a` and `base_b` of the shared memory
//! and are laid out by the *same* [`MatrixMapping`] (in the paper's GPU
//! code both `a[32][32]` and `b[32][32]` use the same shift registers).

use rap_core::mapping::MatrixMapping;
use rap_dmm::{MemOp, Program, WriteSource};
use serde::{Deserialize, Serialize};

/// The transpose algorithm kinds of §III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransposeKind {
    /// Contiguous Read, Stride Write.
    Crsw,
    /// Stride Read, Contiguous Write.
    Srcw,
    /// Diagonal Read, Diagonal Write.
    Drdw,
}

impl TransposeKind {
    /// All algorithms in the paper's Table III row order.
    #[must_use]
    pub fn all() -> [TransposeKind; 3] {
        [
            TransposeKind::Crsw,
            TransposeKind::Srcw,
            TransposeKind::Drdw,
        ]
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TransposeKind::Crsw => "CRSW",
            TransposeKind::Srcw => "SRCW",
            TransposeKind::Drdw => "DRDW",
        }
    }

    /// The logical element thread `(i, j)` **reads** from `a`.
    #[must_use]
    pub fn read_coord(self, i: u32, j: u32, w: u32) -> (u32, u32) {
        match self {
            TransposeKind::Crsw => (i, j),
            TransposeKind::Srcw => (j, i),
            TransposeKind::Drdw => (wrap(i + j, w), j),
        }
    }

    /// The logical element thread `(i, j)` **writes** in `b`.
    #[must_use]
    pub fn write_coord(self, i: u32, j: u32, w: u32) -> (u32, u32) {
        match self {
            TransposeKind::Crsw => (j, i),
            TransposeKind::Srcw => (i, j),
            TransposeKind::Drdw => (j, wrap(i + j, w)),
        }
    }
}

/// `x mod w` for `x < 2w`, without a division.
fn wrap(x: u32, w: u32) -> u32 {
    debug_assert!(x < 2 * w, "{x} is not below 2·{w}");
    x - w * u32::from(x >= w)
}

impl std::fmt::Display for TransposeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for TransposeKind {
    type Err = String;

    /// Parse an algorithm name, case-insensitively (`crsw`, `CRSW`, …).
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "crsw" => Ok(TransposeKind::Crsw),
            "srcw" => Ok(TransposeKind::Srcw),
            "drdw" => Ok(TransposeKind::Drdw),
            other => Err(format!("unknown kind '{other}' (expected crsw|srcw|drdw)")),
        }
    }
}

/// Build the two-phase DMM program for `kind` on matrices laid out by
/// `mapping` at `base_a` (source) and `base_b` (destination).
///
/// # Panics
/// Panics if `mapping.width() == 0`.
#[must_use]
pub fn transpose_program<T: Copy>(
    kind: TransposeKind,
    mapping: &dyn MatrixMapping,
    base_a: u64,
    base_b: u64,
) -> Program<T> {
    let w = mapping.width() as u32;
    let mut p: Program<T> = Program::new((w * w) as usize);
    // Thread `t = i·w + j`, in thread order.
    let threads = || (0..w).flat_map(move |i| (0..w).map(move |j| (i, j)));
    let reads = threads()
        .map(|(i, j)| {
            let (ri, rj) = kind.read_coord(i, j, w);
            Some(MemOp::Read(base_a + u64::from(mapping.address(ri, rj))))
        })
        .collect();
    p.push_phase(format!("{kind} read"), reads);
    let writes = threads()
        .map(|(i, j)| {
            let (wi, wj) = kind.write_coord(i, j, w);
            Some(MemOp::Write(
                base_b + u64::from(mapping.address(wi, wj)),
                WriteSource::LastRead,
            ))
        })
        .collect();
    p.push_phase(format!("{kind} write"), writes);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_and_order() {
        let names: Vec<&str> = TransposeKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["CRSW", "SRCW", "DRDW"]);
    }

    #[test]
    fn names_parse_case_insensitively_and_round_trip() {
        for kind in TransposeKind::all() {
            assert_eq!(kind.to_string().parse::<TransposeKind>(), Ok(kind));
            assert_eq!(
                kind.name().to_ascii_lowercase().parse::<TransposeKind>(),
                Ok(kind)
            );
        }
        assert_eq!("Drdw".parse::<TransposeKind>(), Ok(TransposeKind::Drdw));
        assert_eq!(
            "XYZW".parse::<TransposeKind>(),
            Err("unknown kind 'xyzw' (expected crsw|srcw|drdw)".to_string())
        );
    }

    /// Every algorithm must implement `b = aᵀ`: the write coordinate is
    /// the transpose of the read coordinate.
    #[test]
    fn read_write_coords_compose_to_transpose() {
        let w = 8;
        for kind in TransposeKind::all() {
            for i in 0..w {
                for j in 0..w {
                    let (ri, rj) = kind.read_coord(i, j, w);
                    let (wi, wj) = kind.write_coord(i, j, w);
                    assert_eq!((wi, wj), (rj, ri), "{kind} at ({i},{j})");
                }
            }
        }
    }

    /// Each thread must read a distinct element and write a distinct
    /// element (the algorithms are permutations of work, not reductions).
    #[test]
    fn coords_are_bijective_over_threads() {
        let w = 16;
        for kind in TransposeKind::all() {
            let reads: HashSet<(u32, u32)> = (0..w)
                .flat_map(|i| (0..w).map(move |j| (i, j)))
                .map(|(i, j)| kind.read_coord(i, j, w))
                .collect();
            assert_eq!(reads.len(), (w * w) as usize, "{kind} reads");
            let writes: HashSet<(u32, u32)> = (0..w)
                .flat_map(|i| (0..w).map(move |j| (i, j)))
                .map(|(i, j)| kind.write_coord(i, j, w))
                .collect();
            assert_eq!(writes.len(), (w * w) as usize, "{kind} writes");
        }
    }

    /// DRDW reads and writes are diagonal: within one warp (fixed `i`),
    /// both the read banks and the write banks are pairwise distinct under
    /// RAW.
    #[test]
    fn drdw_is_conflict_free_per_warp_under_raw() {
        let w = 32;
        for i in 0..w {
            let read_banks: HashSet<u32> = (0..w)
                .map(|j| {
                    let (ri, rj) = TransposeKind::Drdw.read_coord(i, j, w);
                    (ri * w + rj) % w
                })
                .collect();
            assert_eq!(read_banks.len(), w as usize, "warp {i} reads");
            let write_banks: HashSet<u32> = (0..w)
                .map(|j| {
                    let (wi, wj) = TransposeKind::Drdw.write_coord(i, j, w);
                    (wi * w + wj) % w
                })
                .collect();
            assert_eq!(write_banks.len(), w as usize, "warp {i} writes");
        }
    }

    #[test]
    fn program_has_two_phases_with_labels() {
        let mapping = rap_core::RowShift::raw(4);
        let p: Program<u64> = transpose_program(TransposeKind::Crsw, &mapping, 0, 16);
        assert_eq!(p.num_phases(), 2);
        assert_eq!(p.num_threads(), 16);
        assert_eq!(p.phases()[0].label, "CRSW read");
        assert_eq!(p.phases()[1].label, "CRSW write");
        assert_eq!(p.max_address(), Some(31));
    }
}
