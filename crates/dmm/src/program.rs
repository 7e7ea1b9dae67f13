//! SIMD programs for the memory machines.
//!
//! A [`Program`] is a sequence of *phases*; in each phase every thread
//! issues at most one memory operation ([`MemOp`]), and a warp only
//! advances to its next phase once all of its current requests have
//! completed (the paper's rule that a thread may send a new request only
//! after the previous one finishes). Phases therefore model the statements
//! of a CUDA kernel — e.g. the paper's transpose
//! `b[j][i] = a[i][j]` is a two-phase program: a read phase of `a` and a
//! write phase into `b` carrying each thread's last-read value.

use crate::access::{MemOp, WriteSource};

/// One SIMD step: per-thread operations, with a label for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase<T> {
    /// Label shown in reports (e.g. `"read a"`).
    pub label: String,
    /// Per-thread operations, indexed by global thread id.
    pub ops: Vec<Option<MemOp<T>>>,
}

/// A multi-phase SIMD program over a fixed number of threads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program<T> {
    num_threads: usize,
    phases: Vec<Phase<T>>,
    /// Whether some phase writes [`WriteSource::Reduced`], so execution
    /// must keep every thread's read history.
    pub(crate) reduces: bool,
}

impl<T: Copy> Program<T> {
    /// An empty program for `num_threads` threads.
    ///
    /// # Panics
    /// Panics if `num_threads == 0`.
    #[must_use]
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads > 0, "a program needs at least one thread");
        Self {
            num_threads,
            phases: Vec::new(),
            reduces: false,
        }
    }

    /// Append a phase built by evaluating `op_of` for every thread id.
    ///
    /// # Panics
    /// Panics if the phase mixes reads and writes (the DMM is SIMD: one
    /// instruction per step, paper §II).
    pub fn phase(
        &mut self,
        label: impl Into<String>,
        mut op_of: impl FnMut(usize) -> Option<MemOp<T>>,
    ) -> &mut Self {
        let ops = (0..self.num_threads).map(&mut op_of).collect();
        self.push_phase(label, ops)
    }

    /// Append a phase whose per-thread operations are already built
    /// (`ops[t]` for thread `t`).
    ///
    /// # Panics
    /// Panics if `ops` does not hold one entry per thread, or if the phase
    /// mixes reads and writes.
    pub fn push_phase(
        &mut self,
        label: impl Into<String>,
        ops: Vec<Option<MemOp<T>>>,
    ) -> &mut Self {
        assert_eq!(ops.len(), self.num_threads, "one operation slot per thread");
        let (mut reads, mut writes) = (false, false);
        for op in ops.iter().flatten() {
            match op {
                MemOp::Read(_) => reads = true,
                MemOp::Write(_, source) => {
                    writes = true;
                    self.reduces |= matches!(source, WriteSource::Reduced);
                }
            }
        }
        assert!(
            !(reads && writes),
            "phase mixes reads and writes, which SIMD execution forbids"
        );
        self.phases.push(Phase {
            label: label.into(),
            ops,
        });
        self
    }

    /// Number of threads.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Number of phases.
    #[must_use]
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// The phases, in program order.
    #[must_use]
    pub fn phases(&self) -> &[Phase<T>] {
        &self.phases
    }

    /// Highest address referenced by any operation, if any — useful for
    /// sizing a [`crate::BankedMemory`].
    #[must_use]
    pub fn max_address(&self) -> Option<u64> {
        self.phases
            .iter()
            .flat_map(|p| p.ops.iter().flatten())
            .map(MemOp::address)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::WriteSource;

    #[test]
    fn build_two_phase_copy() {
        let mut p: Program<u64> = Program::new(4);
        p.phase("read", |t| Some(MemOp::Read(t as u64)));
        p.phase("write", |t| {
            Some(MemOp::Write(8 + t as u64, WriteSource::LastRead))
        });
        assert_eq!(p.num_phases(), 2);
        assert_eq!(p.num_threads(), 4);
        assert_eq!(p.phases()[0].label, "read");
        assert_eq!(p.max_address(), Some(11));
    }

    #[test]
    fn phase_with_inactive_threads() {
        let mut p: Program<u64> = Program::new(4);
        p.phase("partial", |t| (t % 2 == 0).then_some(MemOp::Read(t as u64)));
        let active = p.phases()[0].ops.iter().flatten().count();
        assert_eq!(active, 2);
    }

    #[test]
    #[should_panic(expected = "mixes reads and writes")]
    fn mixed_phase_rejected() {
        let mut p: Program<u64> = Program::new(2);
        p.phase("bad", |t| {
            Some(if t == 0 {
                MemOp::Read(0)
            } else {
                MemOp::Write(1, WriteSource::Const(0))
            })
        });
    }

    /// A phase of only reads, of only writes, or of no operation at all is
    /// SIMD-consistent; only a `Reduced` write makes execution keep read
    /// histories.
    #[test]
    fn single_direction_phases_accepted() {
        let mut p: Program<u64> = Program::new(3);
        p.phase("reads", |t| (t != 1).then_some(MemOp::Read(t as u64)));
        p.phase("writes", |t| {
            (t == 0).then_some(MemOp::Write(0, WriteSource::LastRead))
        });
        p.phase("idle", |_| None);
        assert_eq!(p.num_phases(), 3);
        assert!(!p.reduces);
        p.push_phase(
            "reduce",
            vec![Some(MemOp::Write(0, WriteSource::Reduced)), None, None],
        );
        assert!(p.reduces);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _: Program<u64> = Program::new(0);
    }

    #[test]
    fn empty_program_has_no_addresses() {
        let p: Program<u64> = Program::new(1);
        assert_eq!(p.max_address(), None);
        assert_eq!(p.num_phases(), 0);
    }
}
