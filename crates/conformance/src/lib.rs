//! Differential-conformance harness for the RAP shared-memory stack.
//!
//! Every optimized path in the workspace — the three congestion kernels,
//! the DMM/UMM timing machines, the address-mapping schemes, the
//! transpose algorithms, and the permutation scheduler — is paired with
//! an **independent naive reference** (hash-map counting, plain index
//! arithmetic, closed-form algebra) and cross-checked on deterministic
//! adversarial cases derived from a single `u64` seed.
//!
//! The moving parts:
//!
//! * [`pattern`] — the seed-keyed adversarial generator
//!   ([`AccessCase::from_seed`] and the [`WIDTH_LADDER`]);
//! * [`mod@reference`] — the naive references;
//! * [`oracle`] — the [`Oracle`] trait and the [`Divergence`] record;
//! * [`shrink`] — greedy minimization of failing cases;
//! * concrete oracles in [`kernels`], [`fused_oracle`] (the bit-parallel
//!   fused permute-shift kernel vs the unfused pipeline),
//!   [`redraw_oracle`] (the in-place Table IV mapping redraw vs a fresh
//!   build), [`machine`] (including the machines' dispatch loop vs the
//!   naive loop it replaced),
//!   [`mapping_oracle`], [`transpose_oracle`], [`schedule_oracle`], and
//!   [`prover_oracle`] (the static prover of `rap-analyze` vs the
//!   simulated bank loads), [`synth_oracle`] (synthesis certificates
//!   vs an oracle-local brute-force optimum plus checker rejection of
//!   forgeries), and [`cluster_oracle`] (sharded `rap-cluster` sweeps —
//!   with seed-chosen worker kills — vs the single-process Monte-Carlo
//!   run, bit for bit);
//! * [`mutation`] — deliberately broken kernels proving the harness has
//!   teeth;
//! * [`harness`] — the driver producing a serializable
//!   [`ConformanceReport`].
//!
//! Reproduce any reported failure in one line:
//!
//! ```
//! use rap_conformance::AccessCase;
//! let case = AccessCase::from_seed(0x0123_4567_89ab_cdef);
//! println!("{}", case.describe());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt_oracle;
pub mod cluster_oracle;
pub mod fused_oracle;
pub mod harness;
pub mod kernels;
pub mod machine;
pub mod mapping_oracle;
pub mod mutation;
pub mod oracle;
pub mod pattern;
pub mod prover_oracle;
pub mod redraw_oracle;
pub mod reference;
pub mod schedule_oracle;
pub mod shrink;
pub mod synth_oracle;
pub mod transpose_oracle;

pub use adapt_oracle::AdaptOracle;
pub use cluster_oracle::ClusterOracle;
pub use fused_oracle::FusedKernelOracle;
pub use harness::{ConformanceReport, Harness, IsolatedRun, IsolationPolicy, OracleRun};
pub use kernels::{
    AnalyzePath, CongestionPath, FreeFnPath, KernelOracle, MergedAccessPath, ScratchPath,
};
pub use machine::{DmmFastVsNaiveOracle, DmmTimingOracle, UmmRowsOracle};
pub use mapping_oracle::MappingAlgebraOracle;
pub use mutation::{NoDedupMutant, WrongModulusMutant};
pub use oracle::{Divergence, MinimalCase, Oracle};
pub use pattern::{case_seed, splitmix64, AccessCase, PatternKind, WIDTH_LADDER};
pub use prover_oracle::ProverOracle;
pub use redraw_oracle::RedrawOracle;
pub use reference::{
    naive_bank_loads, naive_congestion, naive_distinct_rows, naive_execute, naive_merge,
    naive_transpose, naive_unique_requests, NaiveShift4d,
};
pub use schedule_oracle::ScheduleOracle;
pub use shrink::shrink_case;
pub use synth_oracle::SynthCertificateOracle;
pub use transpose_oracle::TransposeOracle;
