//! Monte-Carlo congestion estimation — the engine behind Tables II and IV.
//!
//! The paper's simulation (§V) draws fresh randomness (shifts for RAS, a
//! permutation for RAP, fresh random coordinates for the random pattern)
//! and reports the *expected congestion* of each (scheme, pattern) pair.
//! The estimators here do exactly that: per trial, build a fresh mapping,
//! generate the access operation, and record the congestion of every warp.
//!
//! # Parallelism and determinism
//!
//! Trials are independent by construction — trial `t` draws its entire
//! random stream from `domain.child(..).rng(t)` — so the estimators run
//! trials in parallel. To keep the estimate **invariant to the worker
//! count**, trials are grouped into fixed blocks of `TRIALS_PER_BLOCK`:
//! each block is evaluated serially into its own [`OnlineStats`] (with one
//! reused [`AccessScratch`], so the hot loop allocates nothing), the blocks
//! are mapped in parallel, and the per-block accumulators are merged in
//! block-index order. The block boundaries and the merge order depend only
//! on `trials`, never on the scheduler, so 1 worker and N workers produce
//! bit-identical [`OnlineStats`].
//!
//! The cancellable estimator ([`matrix_congestion_cancellable`]) is the
//! request path of `rap-serve` and is **serial by design**: it runs the
//! same blocks, in block-index order, on the calling thread. A server's
//! worker pool is the only parallelism a request gets, so a request
//! never spawns threads of its own (the vendored rayon has no persistent
//! pool: every parallel `collect` spawns and joins scoped OS threads).
//! Merging in the same order keeps an uncancelled run bit-identical to
//! [`matrix_congestion`], and a run the token cuts short is an exact
//! prefix of it: the first `completed_blocks` blocks, with no gaps.
//!
//! Relative to a single serial accumulator over the same sample stream,
//! the block merge is exact for `count`/`min`/`max` and agrees on
//! `mean`/`variance` up to floating-point merge rounding (≈ 1e-12
//! relative); the tests pin both properties.
//!
//! Reproducibility: estimators take a [`SeedDomain`]; the same domain
//! always yields the same estimate, regardless of call order elsewhere.

use crate::array4d::{self, Coord4, Pattern4d};
use crate::cancel::{CancelToken, PartialStats};
use crate::matrix::{self, Coord, MatrixPattern};
use crate::scratch::AccessScratch;
use rap_core::multidim::{Mapping4d, Scheme4d};
use rap_core::{MatrixMapping, RowShift, Scheme};
use rap_stats::{OnlineStats, SeedDomain};
use rayon::prelude::*;

/// Trials per work unit. Fixed (not derived from the worker count) so the
/// block structure — and therefore the merge order and the floating-point
/// result — is identical for every thread count. 32 trials amortise the
/// per-block scratch allocation well below measurement noise while still
/// exposing enough blocks to saturate a pool on Table-sized sweeps.
///
/// Public because the checkpoint layer fingerprints it: a ledger written
/// under one block size must never resume a run under another.
pub const TRIALS_PER_BLOCK: u64 = 32;

/// Number of blocks a `trials`-sized run decomposes into.
#[must_use]
pub fn blocks_for(trials: u64) -> u64 {
    trials.div_ceil(TRIALS_PER_BLOCK)
}

/// The trial range of block `block` in a `trials`-sized run.
#[must_use]
pub fn block_range(block: u64, trials: u64) -> std::ops::Range<u64> {
    let start = block * TRIALS_PER_BLOCK;
    start..trials.min(start + TRIALS_PER_BLOCK)
}

/// Per-worker buffers of the matrix engine: the shared access scratch
/// (congestion kernel + composed shift row) and the coordinate buffer
/// of the unfused fallback. One instance lives per worker thread for a
/// whole sweep (`map_init`), or per cancellable run, so steady state
/// allocates nothing.
#[derive(Default)]
pub(crate) struct MatrixScratch {
    access: AccessScratch,
    warp_buf: Vec<Coord>,
}

/// Per-worker buffers of the 4-D engine (see [`MatrixScratch`]): the
/// congestion kernel's buffers, the coordinate buffer, and the mapping
/// itself, redrawn in place every trial so its `w³`-entry table (RAS,
/// w²P) is allocated once per worker rather than once per trial.
#[derive(Default)]
pub(crate) struct Array4dScratch {
    access: AccessScratch,
    warp_buf: Vec<Coord4>,
    mapping: Option<Mapping4d>,
}

/// Evaluate one block of matrix-congestion trials serially into a fresh
/// accumulator. `child` must be the `domain.child("matrix")` stream; the
/// plain, cancellable and resilient engines all run exactly this body,
/// which is why a resumed run can be bit-identical to an uninterrupted one.
pub(crate) fn matrix_block(
    scheme: Scheme,
    pattern: MatrixPattern,
    w: usize,
    child: &SeedDomain,
    block: std::ops::Range<u64>,
) -> OnlineStats {
    matrix_block_in(
        scheme,
        pattern,
        w,
        child,
        block,
        None,
        &mut MatrixScratch::default(),
    )
    .expect("a block without a token is never cancelled")
}

/// [`matrix_block`] with caller-owned scratch, so a worker thread reuses
/// one set of buffers across every block it executes, and an optional
/// `token` polled before every trial: a cancelled block returns `None`
/// (the partial accumulator is discarded so the surviving blocks stay
/// bit-comparable to the plain engine).
///
/// Per trial this composes the fresh mapping into the scratch shift row
/// and evaluates the trial through the fused path (every warp for Random,
/// warp 0 once for the rotation-invariant patterns); widths beyond the
/// row's 256-bank range fall back to the
/// unfused generate + map + count pipeline. Both paths consume the
/// trial's random stream identically and count congestion identically
/// (pinned by the fused-vs-unfused tests and the conformance oracle), so
/// which path ran is unobservable in the result.
pub(crate) fn matrix_block_in(
    scheme: Scheme,
    pattern: MatrixPattern,
    w: usize,
    child: &SeedDomain,
    block: std::ops::Range<u64>,
    token: Option<&CancelToken>,
    s: &mut MatrixScratch,
) -> Option<OnlineStats> {
    let mut stats = OnlineStats::new();
    for trial in block {
        if token.is_some_and(CancelToken::is_cancelled) {
            return None;
        }
        let mut rng = child.rng(trial);
        let mapping = RowShift::of_scheme(scheme, &mut rng, w);
        if s.access.compose(&mapping) {
            matrix::trial_congestions_fused(pattern, w, &mut rng, &mut s.access, |c| {
                stats.push_u32(c);
            });
        } else {
            for warp in 0..w as u32 {
                matrix::generate_warp_into(pattern, w, warp, &mut rng, &mut s.warp_buf);
                stats.push_u32(matrix::warp_congestion_with(
                    &mapping,
                    &s.warp_buf,
                    &mut s.access,
                ));
            }
        }
    }
    Some(stats)
}

/// Evaluate one block of 4-D array congestion trials serially (see
/// [`matrix_block`]; `child` is the `domain.child("array4d")` stream).
pub(crate) fn array4d_block(
    scheme: Scheme4d,
    pattern: Pattern4d,
    w: usize,
    warps_per_trial: u32,
    child: &SeedDomain,
    block: std::ops::Range<u64>,
) -> OnlineStats {
    array4d_block_in(
        scheme,
        pattern,
        w,
        warps_per_trial,
        child,
        block,
        &mut Array4dScratch::default(),
    )
}

/// [`array4d_block`] with caller-owned scratch (see [`matrix_block_in`]).
///
/// Per trial this redraws the scratch's mapping in place with
/// [`Mapping4d::redraw`], which consumes the trial's random stream
/// exactly like [`Mapping4d::new`], so the result is bit-identical to
/// building a fresh mapping per trial. The trial then reads at most
/// `warps_per_trial · w` table entries; the congestion kernel's buffers
/// and the coordinate buffer are reused across blocks too.
pub(crate) fn array4d_block_in(
    scheme: Scheme4d,
    pattern: Pattern4d,
    w: usize,
    warps_per_trial: u32,
    child: &SeedDomain,
    block: std::ops::Range<u64>,
    s: &mut Array4dScratch,
) -> OnlineStats {
    let mut stats = OnlineStats::new();
    for trial in block {
        let mut rng = child.rng(trial);
        let mapping = match &mut s.mapping {
            Some(mapping) => {
                mapping.redraw(scheme, &mut rng, w).expect("valid width");
                mapping
            }
            slot @ None => slot.insert(Mapping4d::new(scheme, &mut rng, w).expect("valid width")),
        };
        for _ in 0..warps_per_trial {
            array4d::generate_warp_into(pattern, scheme, w, &mut rng, &mut s.warp_buf);
            stats.push_u32(array4d::warp_congestion_with(
                mapping,
                &s.warp_buf,
                &mut s.access,
            ));
        }
    }
    stats
}

/// Run `run_block` over fixed-size trial blocks in parallel and merge the
/// per-block statistics in block-index order.
///
/// This is the determinism kernel of the engine: the result depends only
/// on `trials` and `run_block`, never on how many workers executed the
/// blocks (see the module docs).
/// `init` builds one scratch per worker thread (`map_init`); the scratch
/// carries buffers only, never statistics, so reuse across blocks cannot
/// perturb the result.
fn parallel_trials<S, I, F>(trials: u64, init: I, run_block: F) -> OnlineStats
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, std::ops::Range<u64>) -> OnlineStats + Sync,
{
    assert!(trials > 0, "need at least one trial");
    let blocks: Vec<std::ops::Range<u64>> = (0..trials)
        .step_by(TRIALS_PER_BLOCK as usize)
        .map(|start| start..trials.min(start + TRIALS_PER_BLOCK))
        .collect();
    let per_block: Vec<OnlineStats> = blocks.into_par_iter().map_init(init, run_block).collect();
    let mut total = OnlineStats::new();
    for block in &per_block {
        total.merge(block);
    }
    total
}

/// Estimate the expected per-warp congestion of `pattern` under `scheme`
/// on a `w × w` matrix.
///
/// Each trial draws a fresh mapping and a fresh instance of the pattern
/// (for the random pattern), then records the congestion of **every** warp
/// of the access operation, matching the paper's per-warp averaging.
///
/// Trials run in parallel on the ambient rayon pool; the result is
/// bit-identical for every thread count (see the module docs).
///
/// # Panics
/// Panics if `w == 0` or `trials == 0`.
#[must_use]
pub fn matrix_congestion(
    scheme: Scheme,
    pattern: MatrixPattern,
    w: usize,
    trials: u64,
    domain: &SeedDomain,
) -> OnlineStats {
    assert!(trials > 0, "need at least one trial");
    let child = domain.child("matrix");
    parallel_trials(trials, MatrixScratch::default, |s, block| {
        matrix_block_in(scheme, pattern, w, &child, block, None, s)
            .expect("a block without a token is never cancelled")
    })
}

/// Evaluate exactly one fixed-size block of [`matrix_congestion`]'s
/// decomposition over `trials` total trials, serially, into a fresh
/// accumulator.
///
/// Merging the accumulators of blocks `0..blocks_for(trials)` in block-
/// index order reproduces the full estimator's result **bit for bit**,
/// on any machine — each trial's random stream depends only on
/// `(domain, trial index)`. This is the distribution unit of
/// `rap-cluster`: workers execute single blocks anywhere, the
/// coordinator merges in index order, and re-executing a block after a
/// worker crash yields the identical accumulator.
///
/// # Panics
/// Panics if `w == 0`, `trials == 0`, or `block >= blocks_for(trials)`.
#[must_use]
pub fn matrix_block_stats(
    scheme: Scheme,
    pattern: MatrixPattern,
    w: usize,
    trials: u64,
    block: u64,
    domain: &SeedDomain,
) -> OnlineStats {
    assert!(trials > 0, "need at least one trial");
    assert!(
        block < blocks_for(trials),
        "block {block} out of range for {trials} trials"
    );
    matrix_block(
        scheme,
        pattern,
        w,
        &domain.child("matrix"),
        block_range(block, trials),
    )
}

/// [`matrix_block_stats`] over the consecutive blocks `blocks`, one
/// accumulator per block in block order, through one reused scratch.
/// Each accumulator is bit-identical to [`matrix_block_stats`] of its
/// block. `token` is polled between blocks (never before the first):
/// `None` when it fired before the last block ran.
///
/// # Panics
/// Panics if `w == 0`, `trials == 0`, `blocks` is empty, or
/// `blocks.end > blocks_for(trials)`.
#[must_use]
pub fn matrix_block_run(
    scheme: Scheme,
    pattern: MatrixPattern,
    w: usize,
    trials: u64,
    blocks: std::ops::Range<u64>,
    domain: &SeedDomain,
    token: &CancelToken,
) -> Option<Vec<OnlineStats>> {
    assert!(trials > 0, "need at least one trial");
    assert!(
        !blocks.is_empty() && blocks.end <= blocks_for(trials),
        "blocks {blocks:?} out of range for {trials} trials"
    );
    let child = domain.child("matrix");
    let mut scratch = MatrixScratch::default();
    let mut out = Vec::with_capacity((blocks.end - blocks.start) as usize);
    for block in blocks.clone() {
        if block > blocks.start && token.is_cancelled() {
            return None;
        }
        let range = block_range(block, trials);
        out.push(
            matrix_block_in(scheme, pattern, w, &child, range, None, &mut scratch)
                .expect("a block without a token is never cancelled"),
        );
    }
    Some(out)
}

/// Estimate the expected per-warp congestion of `pattern` under `scheme`
/// on a `w⁴` array (Table IV).
///
/// Each trial draws a fresh mapping and `warps_per_trial` fresh warps.
/// Malicious warps target `scheme` (scheme-aware, instance-blind).
///
/// Trials run in parallel on the ambient rayon pool; the result is
/// bit-identical for every thread count (see the module docs).
///
/// # Panics
/// Panics if `w == 0` or `trials == 0` or `warps_per_trial == 0`.
#[must_use]
pub fn array4d_congestion(
    scheme: Scheme4d,
    pattern: Pattern4d,
    w: usize,
    trials: u64,
    warps_per_trial: u32,
    domain: &SeedDomain,
) -> OnlineStats {
    assert!(
        trials > 0 && warps_per_trial > 0,
        "need at least one sample"
    );
    let child = domain.child("array4d");
    parallel_trials(trials, Array4dScratch::default, |s, block| {
        array4d_block_in(scheme, pattern, w, warps_per_trial, &child, block, s)
    })
}

/// Cancellable [`matrix_congestion`]: the same sample streams and block
/// structure, run **serially on the calling thread** with one reused
/// scratch, polling `token` before every trial. It is the request path
/// of `rap-serve`, serial by design (see the module docs).
///
/// A run whose token never fires returns `cancelled == false` and stats
/// **bit-identical** to the plain estimator: blocks are merged in
/// block-index order either way. A cancelled run stops at the first
/// block that sees the token fire and discards that block's partial
/// accumulator, so the result is an exact prefix: its stats are
/// bit-identical to [`matrix_congestion`] over the first
/// `completed_blocks · TRIALS_PER_BLOCK` trials, marked as an explicit
/// [`PartialStats`] — the deadline path of `rap-serve` turns these into
/// structured timeout responses instead of stalled sockets.
///
/// # Panics
/// Panics if `w == 0` or `trials == 0`.
#[must_use]
pub fn matrix_congestion_cancellable(
    scheme: Scheme,
    pattern: MatrixPattern,
    w: usize,
    trials: u64,
    domain: &SeedDomain,
    token: &CancelToken,
) -> PartialStats {
    assert!(trials > 0, "need at least one trial");
    let child = domain.child("matrix");
    let total_blocks = blocks_for(trials);
    let mut scratch = MatrixScratch::default();
    let mut stats = OnlineStats::new();
    let mut completed_blocks = 0;
    while completed_blocks < total_blocks {
        let range = block_range(completed_blocks, trials);
        let Some(block) =
            matrix_block_in(scheme, pattern, w, &child, range, Some(token), &mut scratch)
        else {
            break;
        };
        stats.merge(&block);
        completed_blocks += 1;
    }
    PartialStats {
        stats,
        completed_blocks,
        total_blocks,
        cancelled: completed_blocks < total_blocks,
    }
}

/// Evaluate `pattern` under one **fixed** layout — a deterministic
/// scheme (XOR, Padded) or a synthesized shift table, where there is no
/// random state to sample per trial.
///
/// Only [`MatrixPattern::Random`] draws anything, so it runs `trials`
/// trials (trial `t` generates from `domain.rng(t)`) and every other
/// pattern runs exactly one. A row rotation
/// ([`MatrixMapping::row_shifts`]: Padded, a shift table) composes its
/// shifts once and runs each trial through the sampled estimators' fused
/// body, [`matrix::trial_congestions_fused`], up to `w = 256`; XOR (bank
/// `j ⊕ i`, no rotation) and wider layouts generate, map and count each
/// warp. Both consume the random stream and count congestion alike, so
/// the answer does not depend on the path. `token` is polled before each
/// trial; the result counts trials as blocks (`total_blocks` is the trial
/// count run) and is marked cancelled when the token fired before the
/// last one.
#[must_use]
pub fn fixed_layout_congestion(
    mapping: &dyn MatrixMapping,
    pattern: MatrixPattern,
    trials: u64,
    domain: &SeedDomain,
    token: &CancelToken,
) -> PartialStats {
    let total_blocks = if pattern == MatrixPattern::Random {
        trials
    } else {
        1
    };
    let w = mapping.width();
    let mut stats = OnlineStats::new();
    let mut scratch = AccessScratch::default();
    let mut warp = Vec::with_capacity(w);
    let fused = mapping
        .row_shifts()
        .is_some_and(|shifts| scratch.composed.compose(&shifts));
    let mut completed_blocks = 0;
    for t in 0..total_blocks {
        if token.is_cancelled() {
            break;
        }
        let mut rng = domain.rng(t);
        if fused {
            matrix::trial_congestions_fused(pattern, w, &mut rng, &mut scratch, |c| {
                stats.push_u32(c);
            });
        } else {
            for k in 0..w as u32 {
                matrix::generate_warp_into(pattern, w, k, &mut rng, &mut warp);
                stats.push_u32(matrix::warp_congestion_with(mapping, &warp, &mut scratch));
            }
        }
        completed_blocks += 1;
    }
    PartialStats {
        stats,
        completed_blocks,
        total_blocks,
        cancelled: completed_blocks < total_blocks,
    }
}

/// Estimate the expected congestion of the *worst known blind adversary*
/// against the matrix RAP/RAS mappings: all `w` threads aim at one
/// RAW-bank (a column access). Under RAW this is congestion `w`; under a
/// fresh RAP instance it must collapse to 1; under RAS it behaves like
/// balls-into-bins. This backs the abstract's claim that "malicious
/// memory access requests destined for the same bank take congestion 32"
/// while the RAP keeps the expected congestion small.
#[must_use]
pub fn matrix_malicious_congestion(
    scheme: Scheme,
    w: usize,
    trials: u64,
    domain: &SeedDomain,
) -> OnlineStats {
    // A column access *is* the strongest blind attack: any fixed warp of
    // distinct addresses is rotated row-wise by the (secret) shifts.
    matrix_congestion(scheme, MatrixPattern::Stride, w, trials, domain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_stats::MaxLoad;

    fn domain() -> SeedDomain {
        SeedDomain::new(2014)
    }

    /// The pre-engine serial estimator, kept verbatim as the reference the
    /// parallel engine is validated against: one accumulator, one
    /// allocation-per-warp `generate` call, trials in order.
    fn matrix_congestion_serial(
        scheme: Scheme,
        pattern: MatrixPattern,
        w: usize,
        trials: u64,
        domain: &SeedDomain,
    ) -> OnlineStats {
        let mut stats = OnlineStats::new();
        for trial in 0..trials {
            let mut rng = domain.child("matrix").rng(trial);
            let mapping = RowShift::of_scheme(scheme, &mut rng, w);
            let op = matrix::generate(pattern, w, &mut rng);
            for warp in &op {
                stats.push_u32(matrix::warp_congestion(&mapping, warp));
            }
        }
        stats
    }

    /// Serial reference for the 4-D estimator (pre-engine code, verbatim).
    fn array4d_congestion_serial(
        scheme: Scheme4d,
        pattern: Pattern4d,
        w: usize,
        trials: u64,
        warps_per_trial: u32,
        domain: &SeedDomain,
    ) -> OnlineStats {
        let mut stats = OnlineStats::new();
        for trial in 0..trials {
            let mut rng = domain.child("array4d").rng(trial);
            let mapping = Mapping4d::new(scheme, &mut rng, w).expect("valid width");
            for _ in 0..warps_per_trial {
                let warp = array4d::generate_warp(pattern, scheme, w, &mut rng);
                stats.push_u32(array4d::warp_congestion(&mapping, &warp));
            }
        }
        stats
    }

    fn with_threads<R>(n: usize, op: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("pool")
            .install(op)
    }

    #[test]
    fn contiguous_is_exactly_one_for_all_schemes() {
        for scheme in Scheme::all() {
            let s = matrix_congestion(scheme, MatrixPattern::Contiguous, 16, 20, &domain());
            assert_eq!(s.mean(), 1.0, "{scheme}");
            assert_eq!(s.max(), Some(1.0), "{scheme}");
        }
    }

    #[test]
    fn stride_classes() {
        let raw = matrix_congestion(Scheme::Raw, MatrixPattern::Stride, 16, 10, &domain());
        assert_eq!(raw.mean(), 16.0);
        let rap = matrix_congestion(Scheme::Rap, MatrixPattern::Stride, 16, 50, &domain());
        assert_eq!(rap.mean(), 1.0, "RAP stride must be deterministically 1");
        let ras = matrix_congestion(Scheme::Ras, MatrixPattern::Stride, 16, 400, &domain());
        let exact = MaxLoad::exact(16, 16).expected();
        assert!(
            (ras.mean() - exact).abs() < 0.15,
            "RAS stride mean {} should approach balls-into-bins {exact}",
            ras.mean()
        );
    }

    #[test]
    fn diagonal_classes() {
        let raw = matrix_congestion(Scheme::Raw, MatrixPattern::Diagonal, 16, 10, &domain());
        assert_eq!(raw.mean(), 1.0, "diagonal is optimized for RAW");
        let rap = matrix_congestion(Scheme::Rap, MatrixPattern::Diagonal, 16, 300, &domain());
        // Paper Table II: 3.20 at w=16 (slightly above the RAS 3.08).
        assert!(
            (rap.mean() - 3.20).abs() < 0.2,
            "RAP diagonal mean {} should be near the paper's 3.20",
            rap.mean()
        );
    }

    #[test]
    fn random_is_scheme_independent() {
        let raw = matrix_congestion(Scheme::Raw, MatrixPattern::Random, 16, 300, &domain());
        let rap = matrix_congestion(Scheme::Rap, MatrixPattern::Random, 16, 300, &domain());
        assert!(
            (raw.mean() - rap.mean()).abs() < 0.2,
            "random congestion must not depend on the scheme ({} vs {})",
            raw.mean(),
            rap.mean()
        );
        // Paper Table II: 2.92 at w=16.
        assert!((raw.mean() - 2.92).abs() < 0.2);
    }

    #[test]
    fn single_block_merge_is_bit_identical_to_full_estimator() {
        // 77 trials → 3 blocks (32 + 32 + 13): exercises the ragged tail.
        let trials = 77;
        for scheme in [Scheme::Raw, Scheme::Ras, Scheme::Rap] {
            let full = matrix_congestion(scheme, MatrixPattern::Random, 16, trials, &domain());
            let mut merged = OnlineStats::new();
            for block in 0..blocks_for(trials) {
                merged.merge(&matrix_block_stats(
                    scheme,
                    MatrixPattern::Random,
                    16,
                    trials,
                    block,
                    &domain(),
                ));
            }
            assert_eq!(
                merged.to_raw(),
                full.to_raw(),
                "{scheme}: block merge must be bit-identical"
            );
        }
    }

    #[test]
    fn block_run_matches_single_blocks_and_stops_between_blocks() {
        let trials = 77;
        let never = CancelToken::never();
        for pattern in [MatrixPattern::Random, MatrixPattern::Stride] {
            let run: Vec<_> =
                matrix_block_run(Scheme::Ras, pattern, 16, trials, 1..3, &domain(), &never)
                    .expect("never cancelled")
                    .iter()
                    .map(OnlineStats::to_raw)
                    .collect();
            let single: Vec<_> = (1..3)
                .map(|b| {
                    matrix_block_stats(Scheme::Ras, pattern, 16, trials, b, &domain()).to_raw()
                })
                .collect();
            assert_eq!(run, single, "{pattern:?}");
        }
        let fired = CancelToken::never();
        fired.cancel();
        let one = matrix_block_run(
            Scheme::Rap,
            MatrixPattern::Random,
            8,
            trials,
            2..3,
            &domain(),
            &fired,
        );
        assert_eq!(one.map(|v| v.len()), Some(1), "the first block always runs");
        let many = matrix_block_run(
            Scheme::Rap,
            MatrixPattern::Random,
            8,
            trials,
            0..3,
            &domain(),
            &fired,
        );
        assert!(many.is_none(), "a fired token stops the run between blocks");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_block_panics() {
        let _ = matrix_block_stats(Scheme::Rap, MatrixPattern::Stride, 8, 32, 1, &domain());
    }

    #[test]
    fn malicious_matrix_summary() {
        let raw = matrix_malicious_congestion(Scheme::Raw, 32, 5, &domain());
        assert_eq!(raw.mean(), 32.0);
        let rap = matrix_malicious_congestion(Scheme::Rap, 32, 20, &domain());
        assert_eq!(rap.mean(), 1.0);
    }

    #[test]
    fn array4d_stride2_separates_1p_from_r1p() {
        let d = domain();
        let onep = array4d_congestion(Scheme4d::OneP, Pattern4d::Stride2, 16, 10, 4, &d);
        assert_eq!(onep.mean(), 16.0, "1P stride2 fully serializes");
        let r1p = array4d_congestion(Scheme4d::R1P, Pattern4d::Stride2, 16, 10, 4, &d);
        assert_eq!(r1p.mean(), 1.0, "R1P stride2 is conflict-free");
    }

    #[test]
    fn array4d_malicious_separates_r1p_from_3p() {
        let d = domain();
        let w = 18;
        let r1p = array4d_congestion(Scheme4d::R1P, Pattern4d::Malicious, w, 60, 2, &d);
        let threep = array4d_congestion(Scheme4d::ThreeP, Pattern4d::Malicious, w, 60, 2, &d);
        assert!(
            r1p.mean() >= 6.0,
            "R1P malicious must collide whole groups, got {}",
            r1p.mean()
        );
        assert!(
            threep.mean() < r1p.mean() / 1.5,
            "3P ({}) must resist the attack that breaks R1P ({})",
            threep.mean(),
            r1p.mean()
        );
    }

    #[test]
    fn estimates_are_reproducible() {
        let a = matrix_congestion(Scheme::Ras, MatrixPattern::Random, 8, 50, &domain());
        let b = matrix_congestion(Scheme::Ras, MatrixPattern::Random, 8, 50, &domain());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let _ = matrix_congestion(Scheme::Raw, MatrixPattern::Random, 8, 0, &domain());
    }

    /// The engine's core contract: the estimate is **bit-identical** for
    /// every worker count, because the block structure and merge order
    /// depend only on `trials`.
    #[test]
    fn thread_count_invariance_is_exact() {
        let d = domain();
        // 100 trials = 4 blocks; enough to exercise uneven chunking at
        // every tested pool size.
        let runs: Vec<(OnlineStats, OnlineStats)> = [1usize, 2, 3, 8]
            .iter()
            .map(|&threads| {
                with_threads(threads, || {
                    (
                        matrix_congestion(Scheme::Ras, MatrixPattern::Random, 16, 100, &d),
                        array4d_congestion(Scheme4d::R1P, Pattern4d::Random, 16, 100, 4, &d),
                    )
                })
            })
            .collect();
        for pair in &runs[1..] {
            assert_eq!(pair.0, runs[0].0, "matrix estimate varies with threads");
            assert_eq!(pair.1, runs[0].1, "array4d estimate varies with threads");
        }
    }

    /// The engine must reproduce the pre-engine serial estimator: the
    /// sample stream is identical (`generate_warp_into` consumes the RNG
    /// exactly like `generate`), so `count`/`min`/`max` match exactly and
    /// `mean`/`variance` match up to block-merge rounding.
    #[test]
    fn engine_matches_serial_reference() {
        let d = domain();
        let cases = [
            (Scheme::Ras, MatrixPattern::Random, 16, 100),
            (Scheme::Rap, MatrixPattern::Diagonal, 32, 70),
            (Scheme::Raw, MatrixPattern::Stride, 8, 33),
            // Wide fused kernel, and the unfused fallback above 256.
            (Scheme::Rap, MatrixPattern::Random, 200, 3),
            (Scheme::Ras, MatrixPattern::Random, 300, 3),
        ];
        for (scheme, pattern, w, trials) in cases {
            let par = matrix_congestion(scheme, pattern, w, trials, &d);
            let ser = matrix_congestion_serial(scheme, pattern, w, trials, &d);
            assert_eq!(par.count(), ser.count(), "{scheme} {pattern}");
            assert_eq!(par.min(), ser.min(), "{scheme} {pattern}");
            assert_eq!(par.max(), ser.max(), "{scheme} {pattern}");
            assert!(
                (par.mean() - ser.mean()).abs() <= 1e-12 * ser.mean().abs(),
                "{scheme} {pattern}: mean {} vs serial {}",
                par.mean(),
                ser.mean()
            );
            assert!(
                (par.variance() - ser.variance()).abs() <= 1e-9 * (1.0 + ser.variance()),
                "{scheme} {pattern}: variance {} vs serial {}",
                par.variance(),
                ser.variance()
            );
        }

        // Every scheme at a power-of-two width and at w = 12, where the
        // bounded draws can reject: the engine redraws one mapping in
        // place per worker, the reference builds a fresh one per trial.
        // 35 trials span a full and a partial block.
        for scheme in Scheme4d::all() {
            for w in [32, 12] {
                for pattern in Pattern4d::table4() {
                    let par = array4d_congestion(scheme, pattern, w, 35, 4, &d);
                    let ser = array4d_congestion_serial(scheme, pattern, w, 35, 4, &d);
                    assert_eq!(par.count(), ser.count(), "{scheme} {pattern} w={w}");
                    assert_eq!(par.min(), ser.min(), "{scheme} {pattern} w={w}");
                    assert_eq!(par.max(), ser.max(), "{scheme} {pattern} w={w}");
                    assert!(
                        (par.mean() - ser.mean()).abs() <= 1e-12 * ser.mean().abs(),
                        "{scheme} {pattern} w={w}: mean {} vs serial {}",
                        par.mean(),
                        ser.mean()
                    );
                }
            }
        }
    }

    /// One worker scratch carried across blocks of different schemes and
    /// widths gives the same block statistics as a fresh scratch each time:
    /// the in-place redraw leaves nothing behind from the previous shape.
    #[test]
    fn array4d_scratch_redraws_across_scheme_and_width_changes() {
        let child = domain().child("array4d");
        let mut scratch = Array4dScratch::default();
        let shapes = [
            (Scheme4d::WSquaredP, Pattern4d::Malicious, 32),
            (Scheme4d::OneP, Pattern4d::Stride1, 12),
            (Scheme4d::Ras, Pattern4d::Random, 17),
            (Scheme4d::Raw, Pattern4d::Contiguous, 4),
            (Scheme4d::OnePlusWSquaredR, Pattern4d::Malicious, 32),
            (Scheme4d::ThreeP, Pattern4d::Stride3, 9),
            (Scheme4d::R1P, Pattern4d::Malicious, 12),
            (Scheme4d::Ras, Pattern4d::Stride1, 32),
        ];
        for (i, (scheme, pattern, w)) in shapes.into_iter().enumerate() {
            let block = block_range(i as u64, 8 * TRIALS_PER_BLOCK);
            let reused =
                array4d_block_in(scheme, pattern, w, 3, &child, block.clone(), &mut scratch);
            let fresh = array4d_block(scheme, pattern, w, 3, &child, block);
            assert_eq!(reused.to_raw(), fresh.to_raw(), "{scheme} {pattern} w={w}");
        }
    }

    #[test]
    fn uncancelled_cancellable_run_is_bit_identical_to_plain() {
        let d = domain();
        let token = CancelToken::never();
        for threads in [1, 4] {
            for (scheme, pattern, w, trials) in [
                (Scheme::Ras, MatrixPattern::Random, 16, 100u64),
                (Scheme::Rap, MatrixPattern::Diagonal, 8, 33),
                (Scheme::Rap, MatrixPattern::Random, 200, 3),
                (Scheme::Ras, MatrixPattern::Stride, 300, 3),
            ] {
                let (plain, run) = with_threads(threads, || {
                    (
                        matrix_congestion(scheme, pattern, w, trials, &d),
                        matrix_congestion_cancellable(scheme, pattern, w, trials, &d, &token),
                    )
                });
                let what = format!("{scheme} {pattern} w={w} threads={threads}");
                assert!(!run.cancelled, "{what}");
                assert!(!run.degraded());
                assert_eq!(run.completed_blocks, run.total_blocks);
                assert_eq!(run.stats.to_raw(), plain.to_raw(), "{what}");
            }
        }
    }

    /// A token fired mid-run leaves an exact prefix: the stats of the
    /// first `completed_blocks` blocks, bit-identical to the plain
    /// estimator over that many trials. A fork-join engine fails this
    /// whenever two chunks each finish part of their blocks.
    #[test]
    fn cancelled_run_is_an_exact_prefix_of_the_plain_estimator() {
        let d = domain();
        let (scheme, pattern, w, trials) = (Scheme::Rap, MatrixPattern::Random, 64, 4096);
        let mut cut_short = 0;
        for delay_ms in [0, 5, 30, 80, 200] {
            let token = CancelToken::never();
            let run = std::thread::scope(|scope| {
                let firing = token.clone();
                scope.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                    firing.cancel();
                });
                matrix_congestion_cancellable(scheme, pattern, w, trials, &d, &token)
            });
            assert_eq!(run.total_blocks, blocks_for(trials));
            assert_eq!(run.cancelled, run.completed_blocks < run.total_blocks);
            if run.completed_blocks == 0 {
                assert_eq!(run.stats.count(), 0, "delay {delay_ms} ms");
                continue;
            }
            cut_short += u32::from(run.cancelled);
            let prefix = matrix_congestion(
                scheme,
                pattern,
                w,
                run.completed_blocks * TRIALS_PER_BLOCK,
                &d,
            );
            assert_eq!(
                run.stats.to_raw(),
                prefix.to_raw(),
                "delay {delay_ms} ms: {} of {} blocks",
                run.completed_blocks,
                run.total_blocks
            );
        }
        assert!(cut_short > 0, "no run was cut short with a completed block");
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_block() {
        let d = domain();
        let token = CancelToken::never();
        token.cancel();
        let start = std::time::Instant::now();
        let run =
            matrix_congestion_cancellable(Scheme::Ras, MatrixPattern::Random, 32, 3200, &d, &token);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "cancellation must be prompt"
        );
        assert!(run.cancelled);
        assert!(run.degraded());
        assert_eq!(run.completed_blocks, 0);
        assert_eq!(run.stats.count(), 0);
        assert_eq!(run.total_blocks, blocks_for(3200));
    }

    #[test]
    fn expired_deadline_token_yields_a_marked_partial() {
        let d = domain();
        let token = CancelToken::with_deadline(std::time::Instant::now());
        let run =
            matrix_congestion_cancellable(Scheme::Rap, MatrixPattern::Stride, 16, 640, &d, &token);
        assert!(run.cancelled, "an already-expired deadline must cancel");
        assert!(run.completed_blocks < run.total_blocks);
    }

    #[test]
    fn fixed_layouts_sample_only_the_random_pattern() {
        let d = domain();
        let never = CancelToken::never();
        let padded = rap_core::modern::Padded::new(8).unwrap();
        let stride = fixed_layout_congestion(&padded, MatrixPattern::Stride, 50, &d, &never);
        assert_eq!((stride.completed_blocks, stride.total_blocks), (1, 1));
        assert_eq!(stride.stats.count(), 8, "one trial of w warps");
        assert_eq!(stride.stats.max(), Some(1.0), "padding makes columns CF");
        let random = fixed_layout_congestion(&padded, MatrixPattern::Random, 5, &d, &never);
        assert_eq!((random.completed_blocks, random.total_blocks), (5, 5));
        assert!(!random.cancelled);
        // Trial t generates from domain.rng(t), nothing else.
        let mut reference = OnlineStats::new();
        for t in 0..5 {
            for warp in matrix::generate(MatrixPattern::Random, 8, &mut d.rng(t)) {
                reference.push_u32(matrix::warp_congestion(&padded, &warp));
            }
        }
        assert_eq!(random.stats.to_raw(), reference.to_raw());
        let cancelled = CancelToken::never();
        cancelled.cancel();
        let run = fixed_layout_congestion(&padded, MatrixPattern::Random, 5, &d, &cancelled);
        assert!(run.cancelled);
        assert_eq!((run.completed_blocks, run.stats.count()), (0, 0));
    }

    /// The address-list loop every fixed layout ran before rotations
    /// took the fused trial body: generate, map each lane, count.
    fn fixed_layout_unfused(
        mapping: &dyn MatrixMapping,
        pattern: MatrixPattern,
        trials: u64,
        domain: &SeedDomain,
    ) -> OnlineStats {
        let w = mapping.width();
        let runs = if pattern == MatrixPattern::Random {
            trials
        } else {
            1
        };
        let mut stats = OnlineStats::new();
        let mut warp = Vec::new();
        for t in 0..runs {
            let mut rng = domain.rng(t);
            for k in 0..w as u32 {
                matrix::generate_warp_into(pattern, w, k, &mut rng, &mut warp);
                stats.push_u32(matrix::warp_congestion(mapping, &warp));
            }
        }
        stats
    }

    /// Padded and a drawn shift table (the rotations the fused body now
    /// serves, fused up to w = 256 and unfused past it) answer bit for bit
    /// what the address-list loop answered: 2 layouts × 19 widths × 5
    /// patterns × 4 seeds = 760 cases.
    #[test]
    fn fixed_rotations_match_the_unfused_loop_bit_for_bit() {
        let widths = [
            1usize, 2, 3, 5, 8, 16, 31, 32, 33, 63, 64, 65, 100, 128, 129, 255, 256, 257, 300,
        ];
        let patterns = [
            MatrixPattern::Contiguous,
            MatrixPattern::Stride,
            MatrixPattern::Diagonal,
            MatrixPattern::Random,
            MatrixPattern::Broadcast,
        ];
        let never = CancelToken::never();
        let mut cases = 0;
        for w in widths {
            let padded = rap_core::modern::Padded::new(w).unwrap();
            let table = RowShift::ras(&mut SeedDomain::new(w as u64).rng(0), w);
            let table: &[u32] = table.shifts();
            for layout in [&padded as &dyn MatrixMapping, &table] {
                for pattern in patterns {
                    for seed in 0..4 {
                        let d = SeedDomain::new(seed);
                        let run = fixed_layout_congestion(layout, pattern, 2, &d, &never);
                        let reference = fixed_layout_unfused(layout, pattern, 2, &d);
                        assert!(!run.cancelled);
                        assert_eq!(
                            run.stats.to_raw(),
                            reference.to_raw(),
                            "{:?} {pattern} w={w} seed={seed}",
                            layout.row_shifts().map(|s| s[..w.min(4)].to_vec())
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 760);
    }

    /// A token that fires mid-run on the fused path leaves an exact prefix:
    /// the completed trials, bit-identical to the address-list loop over
    /// that many trials.
    #[test]
    fn a_cancelled_fused_fixed_run_is_an_exact_prefix() {
        let d = domain();
        let padded = rap_core::modern::Padded::new(64).unwrap();
        let mut cut_short = 0;
        for delay_ms in [0, 5, 30, 80] {
            let token = CancelToken::never();
            let run = std::thread::scope(|scope| {
                let firing = token.clone();
                scope.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                    firing.cancel();
                });
                fixed_layout_congestion(&padded, MatrixPattern::Random, 1_000_000, &d, &token)
            });
            assert_eq!(run.total_blocks, 1_000_000);
            assert_eq!(run.cancelled, run.completed_blocks < run.total_blocks);
            cut_short += u32::from(run.cancelled && run.completed_blocks > 0);
            let prefix =
                fixed_layout_unfused(&padded, MatrixPattern::Random, run.completed_blocks, &d);
            assert_eq!(run.stats.to_raw(), prefix.to_raw(), "delay {delay_ms} ms");
        }
        assert!(cut_short > 0, "no run was cut short with a completed trial");
    }

    /// XOR's bank `j ⊕ i` is no rotation: it reports no shifts, so it
    /// stays on the address-list loop and answers what that loop answers.
    /// Its diagonal warps differ in congestion, which the fused body's
    /// one-warp shortcut for rotations would have flattened.
    #[test]
    fn xor_stays_on_the_unfused_loop() {
        let never = CancelToken::never();
        for w in [2usize, 8, 32, 64, 256, 512] {
            let xor = rap_core::modern::XorSwizzle::new(w).unwrap();
            assert!(xor.row_shifts().is_none());
            for pattern in MatrixPattern::table2() {
                let d = SeedDomain::new(w as u64);
                let run = fixed_layout_congestion(&xor, pattern, 2, &d, &never);
                let reference = fixed_layout_unfused(&xor, pattern, 2, &d);
                assert_eq!(run.stats.to_raw(), reference.to_raw(), "{pattern} w={w}");
            }
        }
        let xor = rap_core::modern::XorSwizzle::new(32).unwrap();
        let diagonal = fixed_layout_congestion(&xor, MatrixPattern::Diagonal, 1, &domain(), &never);
        assert!(diagonal.stats.min() < diagonal.stats.max());
    }

    /// A single block (trials ≤ TRIALS_PER_BLOCK) merges into an empty
    /// accumulator, which copies it verbatim — so small runs are
    /// bit-identical to the serial reference, not merely close.
    #[test]
    fn single_block_is_bit_identical_to_serial() {
        let d = domain();
        let par = matrix_congestion(Scheme::Ras, MatrixPattern::Random, 16, 32, &d);
        let ser = matrix_congestion_serial(Scheme::Ras, MatrixPattern::Random, 16, 32, &d);
        assert_eq!(par, ser);
    }
}
