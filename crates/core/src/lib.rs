//! # rap-core — the Random Address Permute-Shift technique
//!
//! Rust implementation of the core contribution of
//!
//! > Koji Nakano, Susumu Matsumae, Yasuaki Ito, *Random Address
//! > Permute-Shift Technique for the Shared Memory on GPUs*, ICPP 2014.
//!
//! The shared memory of a GPU streaming multiprocessor is split into `w`
//! banks; a warp of `w` threads that sends two or more requests to the same
//! bank **serializes**. The paper's RAP technique stores a `w × w` matrix
//! with each row `i` rotated by `σ(i)` for a single uniformly random
//! permutation `σ`, which guarantees:
//!
//! * **contiguous** (row) and **stride** (column) access are *always*
//!   conflict-free, and
//! * *any* access — including adversarial ones — has expected congestion
//!   `O(log w / log log w)` (Theorem 2).
//!
//! ## Module map
//!
//! * [`permutation`] — validated random permutations (Fisher–Yates);
//! * [`mapping`] — the RAW / RAS / RAP matrix mappings behind the
//!   [`MatrixMapping`] trait;
//! * [`congestion`] — the congestion metric with CRCW merge semantics;
//! * [`packed`] — the Figure-7 register packing of the shift table;
//! * [`multidim`] — the §VII extensions (1P, R1P, 3P, w²P, 1P+w²R) for
//!   `w⁴` arrays;
//! * [`nd`] — generic `wⁿ` generalization of 3P;
//! * [`theory`] — Chernoff machinery, Theorem 2's explicit bound, and the
//!   qualitative Tables I and IV.
//!
//! ## Quick example
//!
//! ```
//! use rap_core::{congestion, MatrixMapping, RowShift};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
//! let w = 32;
//! let rap = RowShift::rap(&mut rng, w);
//! let raw = RowShift::raw(w);
//!
//! // Column (stride) access: thread i reads A[i]\[7\].
//! let col = |m: &dyn MatrixMapping| {
//!     (0..w as u32).map(|i| u64::from(m.address(i, 7))).collect::<Vec<_>>()
//! };
//!
//! assert_eq!(congestion::congestion(w, &col(&raw)), 32); // fully serialized
//! assert_eq!(congestion::congestion(w, &col(&rap)), 1);  // conflict-free
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod congestion;
pub mod diagnostics;
pub mod error;
pub mod mapping;
pub mod modern;
pub mod multidim;
pub mod nd;
pub mod packed;
pub mod permutation;
pub mod theory;

pub use congestion::{
    bank_of, BankLoads, CompactCongestion, CongestionScratch, WideCompactCongestion,
};
pub use error::CoreError;
pub use mapping::{ComposedRowShift, MatrixMapping, RowShift, Scheme};
pub use modern::{build_mapping, Padded, XorSwizzle};
pub use multidim::{Mapping4d, Scheme4d};
pub use nd::{MappingNd, SchemeNd};
pub use packed::PackedShifts;
pub use permutation::Permutation;
