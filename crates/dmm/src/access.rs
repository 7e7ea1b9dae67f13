//! Per-thread memory operations and warp-level CRCW merging.
//!
//! Threads of a warp execute in SIMD lockstep, so within one program phase
//! every thread issues at most one memory operation and all operations have
//! the same direction (the DMM forbids mixing reads and writes in one
//! SIMD instruction, paper §II). Requests to the same address are merged:
//! a full-warp broadcast read counts as a single request, and simultaneous
//! writes to one address are resolved arbitrarily (we deterministically
//! keep the lowest-numbered thread's value, a valid "arbitrary CRCW"
//! resolution).

use serde::{Deserialize, Serialize};

/// Where a write gets its value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WriteSource<T> {
    /// The value most recently read by the same thread (the `c = a[..];
    /// b[..] = c` idiom of the paper's CUDA listings).
    LastRead,
    /// An immediate value.
    Const(T),
    /// A reduction of *all* values the thread has read so far, computed by
    /// the reducer passed to
    /// [`Machine::execute_with`](crate::Machine::execute_with). Models
    /// register-resident accumulation (e.g. a dot product across the read
    /// phases of a matrix-multiply kernel) without charging memory
    /// traffic for it.
    Reduced,
}

/// One thread's memory operation in one program phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemOp<T> {
    /// Read the word at the flat address into the thread's `last_read`
    /// register.
    Read(u64),
    /// Write to the flat address.
    Write(u64, WriteSource<T>),
}

impl<T> MemOp<T> {
    /// The flat address this operation touches.
    #[must_use]
    pub fn address(&self) -> u64 {
        match *self {
            MemOp::Read(a) | MemOp::Write(a, _) => a,
        }
    }

    /// Whether this is a read.
    #[must_use]
    pub fn is_read(&self) -> bool {
        matches!(self, MemOp::Read(_))
    }
}

/// The merged view of one warp's phase: the unique addresses it touches
/// and the number of pipeline stages the access occupies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergedAccess {
    /// Unique addresses, in no particular order.
    pub addresses: Vec<u64>,
    /// Per-bank unique-request counts (length = machine width).
    pub bank_loads: Vec<u32>,
}

impl MergedAccess {
    /// Merge the operations of one warp (CRCW: duplicate addresses count
    /// once) on a machine with `width` banks.
    #[must_use]
    pub fn merge<T>(width: usize, ops: &[Option<MemOp<T>>]) -> Self {
        let mut merged = Self::default();
        merged.merge_into(width, ops);
        merged
    }

    /// [`MergedAccess::merge`] into `self`, reusing its buffers.
    ///
    /// Requests to distinct banks have distinct addresses, so on a
    /// power-of-two machine of at most 64 banks a warp whose requests all
    /// land in distinct banks is recognised with one bit mask (bank `b`
    /// sets bit `b`) and needs neither the sort nor the per-bank count.
    pub fn merge_into<T>(&mut self, width: usize, ops: &[Option<MemOp<T>>]) {
        let w = width as u64;
        let pow2 = width.is_power_of_two();
        // Filled by index, not `push`: this loop is the simulator's
        // hottest, one pass per warp access.
        self.addresses.resize(ops.len(), 0);
        let mut n = 0;
        let (mut seen, mut twice) = (0u64, 0u64);
        for op in ops.iter().flatten() {
            let a = op.address();
            self.addresses[n] = a;
            n += 1;
            let bit = 1u64.wrapping_shl((a & w.wrapping_sub(1)) as u32);
            twice |= seen & bit;
            seen |= bit;
        }
        self.addresses.truncate(n);
        self.bank_loads.clear();
        self.bank_loads.resize(width, 0);
        if width <= 64 && pow2 && twice == 0 {
            for (bank, load) in self.bank_loads.iter_mut().enumerate() {
                *load = (seen >> bank & 1) as u32;
            }
            return;
        }
        self.addresses.sort_unstable();
        self.addresses.dedup();
        for &a in &self.addresses {
            self.bank_loads[(a % w) as usize] += 1;
        }
    }

    /// The congestion of the merged access: max unique requests per bank.
    #[must_use]
    pub fn congestion(&self) -> u32 {
        self.bank_loads.iter().copied().max().unwrap_or(0)
    }

    /// Whether the warp issued anything at all this phase.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.addresses.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Op = MemOp<u64>;

    #[test]
    fn address_and_kind() {
        let r: Op = MemOp::Read(7);
        let w: Op = MemOp::Write(9, WriteSource::Const(1));
        assert_eq!(r.address(), 7);
        assert_eq!(w.address(), 9);
        assert!(r.is_read());
        assert!(!w.is_read());
    }

    #[test]
    fn merge_counts_unique_only() {
        let ops: Vec<Option<Op>> = vec![
            Some(MemOp::Read(0)),
            Some(MemOp::Read(0)),
            Some(MemOp::Read(4)),
            None,
        ];
        let m = MergedAccess::merge(4, &ops);
        assert_eq!(m.addresses, vec![0, 4]);
        assert_eq!(m.bank_loads, vec![2, 0, 0, 0]);
        assert_eq!(m.congestion(), 2);
    }

    #[test]
    fn broadcast_merges_to_one() {
        let ops: Vec<Option<Op>> = (0..32).map(|_| Some(MemOp::Read(5))).collect();
        let m = MergedAccess::merge(32, &ops);
        assert_eq!(m.congestion(), 1);
        assert_eq!(m.addresses.len(), 1);
    }

    #[test]
    fn empty_phase() {
        let ops: Vec<Option<Op>> = vec![None, None];
        let m = MergedAccess::merge(8, &ops);
        assert!(m.is_empty());
        assert_eq!(m.congestion(), 0);
    }

    #[test]
    fn merge_respects_width() {
        let ops: Vec<Option<Op>> = vec![Some(MemOp::Read(3)), Some(MemOp::Read(11))];
        // width 4: both in bank 3 → congestion 2
        assert_eq!(MergedAccess::merge(4, &ops).congestion(), 2);
        // width 8: banks 3 and 3 → still 2
        assert_eq!(MergedAccess::merge(8, &ops).congestion(), 2);
        // width 16: banks 3 and 11 → 1
        assert_eq!(MergedAccess::merge(16, &ops).congestion(), 1);
    }
}
