//! Reusable per-worker buffers for warp-granular congestion evaluation.
//!
//! The Monte-Carlo estimators evaluate millions of warps; allocating a
//! coordinate list, an address list, and the congestion kernel's buffers
//! for each one dominates the profile. One [`AccessScratch`] per worker
//! (or per serial loop) reduces that to a handful of high-water-mark
//! allocations for a whole sweep.

use rap_core::congestion::CongestionScratch;
use rap_core::mapping::ComposedRowShift;
use rap_core::RowShift;

/// Caller-owned buffers threaded through the `*_into` / `*_with` variants
/// in [`crate::matrix`] and [`crate::array4d`], plus the composed
/// permute-shift row of the fused fast path.
#[derive(Debug, Clone, Default)]
pub struct AccessScratch {
    /// Physical address buffer (one entry per thread of the current warp).
    pub(crate) addrs: Vec<u64>,
    /// Congestion kernel heap buffers (used only by the unfused path at
    /// `width > 128`; the other congestion kernels live on the stack).
    pub(crate) congestion: CongestionScratch,
    /// The current trial's σ/shift row, one byte per row (`w ≤ 256`);
    /// the allocation persists across trials.
    pub(crate) composed: ComposedRowShift,
}

impl AccessScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `mapping`'s permutation + row shifts in the cached `w`-byte
    /// row, making [`crate::matrix::warp_congestion_fused`] serve this
    /// mapping. Returns `true` for `1 ≤ w ≤ 256`; `false` (row unusable,
    /// callers take the unfused path) when `mapping.width()` is 0 or
    /// exceeds [`ComposedRowShift::MAX_WIDTH`].
    pub fn compose(&mut self, mapping: &RowShift) -> bool {
        self.composed.compose(mapping.shifts())
    }
}
