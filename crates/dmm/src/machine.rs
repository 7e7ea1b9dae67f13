//! The timing machines: DMM and UMM.
//!
//! ## Timing model (paper §II, Figure 3)
//!
//! The MMU is an `l`-stage pipeline with a **single injection port**: in
//! each time unit one *stage* — a set of requests touching pairwise
//! distinct banks — enters the pipeline, and a stage injected at time `t`
//! completes at `t + l − 1`. A warp access with congestion `c` needs
//! exactly `c` stages (split its requests so that every stage carries at
//! most one request per bank). Consequences, which this simulator
//! reproduces exactly:
//!
//! * `x` requests to one bank take `x + l − 1` time units;
//! * contiguous access by `W` warps: `W` stages → `W + l − 1` time units;
//! * stride access by `W` warps of width `w`: `W·w` stages →
//!   `W·w + l − 1` time units.
//!
//! Warps are dispatched round-robin; a warp whose phase issues no request
//! is not dispatched; a warp may start its next phase only after all of its
//! current requests have completed (threads hold at most one outstanding
//! request).
//!
//! ## DMM vs UMM
//!
//! The machines differ in how many stages one warp access occupies:
//!
//! * **DMM** ([`DiscreteBanks`]): separate address lines per bank — a stage
//!   may carry *different* addresses as long as banks are distinct, so
//!   `stages = congestion` (max unique requests per bank);
//! * **UMM** ([`UnifiedRows`]): one shared address line — all banks receive
//!   the same row address, so `stages = number of distinct rows`
//!   (`address / width`) touched by the warp.
//!
//! ## Memory semantics
//!
//! Functional effects are applied atomically at warp dispatch: reads load
//! each thread's `last_read` register; simultaneous writes to one address
//! keep the lowest-numbered thread's value (arbitrary-CRCW, paper §II).
//! Programs in which two warps race on an address within the same phase
//! are outside the DMM's deterministic fragment; this simulator resolves
//! them in dispatch order.

use crate::access::{MemOp, MergedAccess, WriteSource};
use crate::memory::BankedMemory;
use crate::program::Program;
use crate::report::{ExecReport, PhaseStats};
use rap_stats::IntHistogram;

/// How many pipeline stages one merged warp access occupies.
pub trait StageModel {
    /// Machine name for reports.
    const NAME: &'static str;

    /// Stage count for a merged access on a machine with `width` banks.
    fn stages(width: usize, merged: &MergedAccess) -> u32;
}

/// The Discrete Memory Machine rule: stages = congestion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiscreteBanks;

impl StageModel for DiscreteBanks {
    const NAME: &'static str = "DMM";

    fn stages(_width: usize, merged: &MergedAccess) -> u32 {
        merged.congestion()
    }
}

/// The Unified Memory Machine rule: stages = distinct rows (`addr / w`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnifiedRows;

impl StageModel for UnifiedRows {
    const NAME: &'static str = "UMM";

    fn stages(width: usize, merged: &MergedAccess) -> u32 {
        let w = width as u64;
        let mut rows: Vec<u64> = merged.addresses.iter().map(|&a| a / w).collect();
        rows.sort_unstable();
        rows.dedup();
        rows.len() as u32
    }
}

/// A memory machine with a fixed width (banks = warp size) and pipeline
/// latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Machine<M: StageModel> {
    width: usize,
    latency: u64,
    _model: std::marker::PhantomData<M>,
}

/// The Discrete Memory Machine.
pub type Dmm = Machine<DiscreteBanks>;
/// The Unified Memory Machine.
pub type Umm = Machine<UnifiedRows>;

impl<M: StageModel> Machine<M> {
    /// A machine with `width` banks (= threads per warp) and access
    /// latency `latency ≥ 1`.
    ///
    /// # Panics
    /// Panics if `width == 0` or `latency == 0`.
    #[must_use]
    pub fn new(width: usize, latency: u64) -> Self {
        assert!(width > 0, "width must be positive");
        assert!(latency >= 1, "latency must be at least 1 time unit");
        Self {
            width,
            latency,
            _model: std::marker::PhantomData,
        }
    }

    /// Number of banks / threads per warp.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Pipeline latency `l`.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Execute `program` against `memory`, returning timing and congestion
    /// statistics. `memory` is updated with the program's effects.
    ///
    /// ```
    /// use rap_dmm::{BankedMemory, Dmm, Machine, MemOp, Program};
    ///
    /// // A stride access on a 4-bank DMM with latency 2: every warp hits
    /// // one bank with 4 requests, so 4 warps need 4·4 + 2 − 1 cycles.
    /// let machine: Dmm = Machine::new(4, 2);
    /// let mut program: Program<u64> = Program::new(16);
    /// program.phase("stride", |t| Some(MemOp::Read(((t % 4) * 4 + t / 4) as u64)));
    /// let mut memory = BankedMemory::new(4, 16);
    /// let report = machine.execute(&program, &mut memory);
    /// assert_eq!(report.cycles, 17);
    /// assert_eq!(report.max_congestion(), 4);
    /// ```
    ///
    /// # Panics
    /// Panics if the thread count is not a positive multiple of the width
    /// (the DMM partitions threads into full warps, paper §II), if the
    /// program touches an address outside `memory`, or if it uses
    /// [`WriteSource::Reduced`] (use [`Machine::execute_with`]).
    pub fn execute<T: Copy>(
        &self,
        program: &Program<T>,
        memory: &mut BankedMemory<T>,
    ) -> ExecReport {
        self.execute_with(program, memory, |_: &[T]| {
            panic!("program uses WriteSource::Reduced; call execute_with and supply a reducer")
        })
    }

    /// Like [`Machine::execute`], but with a `reducer` that maps each
    /// thread's full read history (in read order) to the value written by
    /// [`WriteSource::Reduced`]. This models register-resident arithmetic
    /// — e.g. the running dot product of a matrix-multiply kernel — which
    /// costs no memory traffic on the DMM.
    ///
    /// # Panics
    /// As [`Machine::execute`] (except `Reduced` is now supported).
    pub fn execute_with<T: Copy>(
        &self,
        program: &Program<T>,
        memory: &mut BankedMemory<T>,
        reducer: impl Fn(&[T]) -> T,
    ) -> ExecReport {
        let w = self.width;
        let p = program.num_threads();
        let mut phases: Vec<PhaseStats> = program
            .phases()
            .iter()
            .map(|ph| PhaseStats {
                label: ph.label.clone(),
                congestion: IntHistogram::with_max(w as u32),
                stages: 0,
            })
            .collect();
        // The register file: each thread's last read and, only when a phase
        // writes `Reduced`, its whole read history.
        let mut last_read: Vec<Option<T>> = vec![None; p];
        let reduces = program.reduces;
        let mut history: Vec<Vec<T>> = vec![Vec::new(); if reduces { p } else { 0 }];
        let (mut cycles, mut dispatches, mut total_stages) = (0u64, 0u64, 0u64);
        self.dispatch_loop(program, |warp, phase, merged, _, stages, completion| {
            // Functional effects apply at dispatch. Reads first (a phase is
            // all-reads or all-writes, so order within it is immaterial).
            let threads = warp * w..(warp + 1) * w;
            let ops = &program.phases()[phase].ops[threads.clone()];
            for (t, op) in threads.clone().zip(ops) {
                if let Some(MemOp::Read(a)) = op {
                    let value = memory.read(*a);
                    last_read[t] = Some(value);
                    if reduces {
                        history[t].push(value);
                    }
                }
            }
            // Writes: lowest-numbered thread wins on address collisions, so
            // iterate lanes in reverse and let earlier lanes overwrite.
            for (t, op) in threads.zip(ops).rev() {
                if let Some(MemOp::Write(a, src)) = op {
                    let value = match src {
                        WriteSource::Const(v) => *v,
                        WriteSource::LastRead => {
                            last_read[t].expect("thread wrote LastRead before any read")
                        }
                        WriteSource::Reduced => reducer(&history[t]),
                    };
                    memory.write(*a, value);
                }
            }
            let stages = u64::from(stages);
            cycles = cycles.max(completion + 1);
            dispatches += 1;
            total_stages += stages;
            phases[phase].congestion.record(merged.congestion());
            phases[phase].stages += stages;
        });
        ExecReport {
            cycles,
            dispatches,
            total_stages,
            phases,
        }
    }

    /// The machine's one dispatch loop, shared by [`Machine::execute_with`]
    /// and [`crate::trace()`]: it schedules every non-empty warp phase of
    /// `program` and hands each dispatch, in dispatch order, to
    /// `on_dispatch(warp, phase, merged, start, stages, completion)`: the
    /// merged access, its first cycle on the injection port, the stages it
    /// occupies and the cycle its last request completes.
    ///
    /// Each warp keeps a cursor to its next phase in which it issues
    /// anything, so an idle warp phase costs one scan of its `w` lanes for
    /// the whole run; the merge reuses one scratch; and when no warp is
    /// ready the port time jumps straight to the earliest ready time, so
    /// idle cycles cost nothing.
    ///
    /// # Panics
    /// Panics if the thread count is not a multiple of the width.
    pub(crate) fn dispatch_loop<T: Copy>(
        &self,
        program: &Program<T>,
        mut on_dispatch: impl FnMut(usize, usize, &MergedAccess, u64, u32, u64),
    ) {
        let w = self.width;
        let p = program.num_threads();
        assert!(
            p.is_multiple_of(w),
            "thread count {p} must be a multiple of the width {w}"
        );
        let n_warps = p / w;
        let phases = program.phases();
        let n_phases = phases.len();
        let warp_ops = |phase: usize, warp: usize| &phases[phase].ops[warp * w..(warp + 1) * w];
        // The first phase at or after `from` in which `warp` issues a request.
        let next_busy = |warp: usize, from: usize| {
            (from..n_phases)
                .find(|&phase| warp_ops(phase, warp).iter().any(Option::is_some))
                .unwrap_or(n_phases)
        };

        let mut pc: Vec<usize> = (0..n_warps).map(|warp| next_busy(warp, 0)).collect();
        let mut unfinished = pc.iter().filter(|&&c| c < n_phases).count();
        let mut ready_at = vec![0u64; n_warps];
        let mut merged = MergedAccess::default();
        let mut port_time: u64 = 0; // next free injection slot
        let mut rr = 0usize; // round-robin scan start

        while unfinished > 0 {
            // Round-robin among the warps ready at the current port time;
            // if none is, advance time to the earliest one.
            let ready = (rr..n_warps)
                .chain(0..rr)
                .find(|&wi| pc[wi] < n_phases && ready_at[wi] <= port_time);
            let Some(warp) = ready else {
                port_time = (0..n_warps)
                    .filter(|&wi| pc[wi] < n_phases)
                    .map(|wi| ready_at[wi])
                    .min()
                    .expect("some warp must remain");
                continue;
            };
            rr = (warp + 1) % n_warps;

            let phase = pc[warp];
            merged.merge_into(w, warp_ops(phase, warp));
            // The access occupies `stages` injection slots.
            let stages = M::stages(w, &merged);
            let start = port_time;
            port_time = start + u64::from(stages);
            let completion = start + u64::from(stages) - 1 + (self.latency - 1);
            ready_at[warp] = completion + 1;
            pc[warp] = next_busy(warp, phase + 1);
            if pc[warp] == n_phases {
                unfinished -= 1;
            }
            on_dispatch(warp, phase, &merged, start, stages, completion);
        }
    }
}

/// Closed-form time of a contiguous access by `warps` warps
/// (`warps + l − 1`), for cross-checking the simulator.
#[must_use]
pub fn contiguous_time(warps: u64, latency: u64) -> u64 {
    warps + latency - 1
}

/// Closed-form time of a stride access by `warps` warps on width `w`
/// (`warps·w + l − 1`).
#[must_use]
pub fn stride_time(warps: u64, width: u64, latency: u64) -> u64 {
    warps * width + latency - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{MemOp, WriteSource};

    /// Contiguous access: thread `t` reads address `t`.
    fn contiguous_program(w: usize) -> Program<u64> {
        let mut p = Program::new(w * w);
        p.phase("read", |t| Some(MemOp::Read(t as u64)));
        p
    }

    /// Stride access: thread `t` reads `A[t mod w][t / w]` = address
    /// `(t mod w)·w + t/w` — every warp hammers a single bank.
    fn stride_program(w: usize) -> Program<u64> {
        let mut p = Program::new(w * w);
        p.phase("read", move |t| {
            Some(MemOp::Read(((t % w) * w + t / w) as u64))
        });
        p
    }

    #[test]
    fn contiguous_matches_closed_form() {
        for (w, l) in [(4usize, 1u64), (4, 2), (8, 5), (16, 3)] {
            let m: Dmm = Machine::new(w, l);
            let mut mem = BankedMemory::new(w, w * w);
            let r = m.execute(&contiguous_program(w), &mut mem);
            assert_eq!(r.cycles, contiguous_time(w as u64, l), "w={w} l={l}");
            assert_eq!(r.max_congestion(), 1);
            assert_eq!(r.total_stages, w as u64);
        }
    }

    #[test]
    fn stride_matches_closed_form() {
        for (w, l) in [(4usize, 1u64), (4, 2), (8, 5)] {
            let m: Dmm = Machine::new(w, l);
            let mut mem = BankedMemory::new(w, w * w);
            let r = m.execute(&stride_program(w), &mut mem);
            assert_eq!(r.cycles, stride_time(w as u64, w as u64, l), "w={w} l={l}");
            assert_eq!(r.max_congestion(), w as u32);
        }
    }

    #[test]
    fn broadcast_counts_once() {
        let w = 8;
        let m: Dmm = Machine::new(w, 2);
        let mut mem = BankedMemory::new(w, w * w);
        let mut p: Program<u64> = Program::new(w * w);
        p.phase("bcast", |_| Some(MemOp::Read(5)));
        let r = m.execute(&p, &mut mem);
        assert_eq!(r.max_congestion(), 1);
        assert_eq!(r.cycles, contiguous_time(w as u64, 2));
    }

    #[test]
    fn figure3_example() {
        // Paper Figure 3: w = 4, l = 3; W(0) accesses {7, 5, 15, 0},
        // W(1) accesses {10, 11, 12, 9}. W(0) has 7 and 15 in bank 3 →
        // 2 stages; W(1) is conflict-free → 1 stage. Three stages total,
        // so the time is 3 + 3 − 1 = 5 time units.
        let m: Dmm = Machine::new(4, 3);
        let mut mem = BankedMemory::new(4, 16);
        let mut p: Program<u64> = Program::new(8);
        let addrs = [7u64, 5, 15, 0, 10, 11, 12, 9];
        p.phase("fig3", move |t| Some(MemOp::Read(addrs[t])));
        let r = m.execute(&p, &mut mem);
        assert_eq!(r.cycles, 5);
        assert_eq!(r.total_stages, 3);
        assert_eq!(r.dispatches, 2);
    }

    #[test]
    fn copy_program_moves_data() {
        let w = 4;
        let m: Dmm = Machine::new(w, 1);
        let mut mem = BankedMemory::from_words(w, (0u64..32).collect());
        let mut p: Program<u64> = Program::new(16);
        p.phase("read", |t| Some(MemOp::Read(t as u64)));
        p.phase("write", |t| {
            Some(MemOp::Write(16 + t as u64, WriteSource::LastRead))
        });
        let r = m.execute(&p, &mut mem);
        assert!(r.cycles > 0);
        for t in 0..16u64 {
            assert_eq!(mem.read(16 + t), t);
        }
    }

    #[test]
    fn crcw_write_lowest_thread_wins() {
        let w = 4;
        let m: Dmm = Machine::new(w, 1);
        let mut mem = BankedMemory::new(w, 8);
        let mut p: Program<u64> = Program::new(4);
        p.phase("write", |t| {
            Some(MemOp::Write(3, WriteSource::Const(100 + t as u64)))
        });
        let r = m.execute(&p, &mut mem);
        assert_eq!(mem.read(3), 100, "lowest-numbered thread must win");
        assert_eq!(r.max_congestion(), 1, "merged write counts once");
    }

    #[test]
    fn inactive_warp_not_dispatched() {
        let w = 4;
        let m: Dmm = Machine::new(w, 1);
        let mut mem = BankedMemory::new(w, 64);
        let mut p: Program<u64> = Program::new(16); // 4 warps
                                                    // Only warp 0 is active.
        p.phase("sparse", |t| (t < 4).then_some(MemOp::Read(t as u64)));
        let r = m.execute(&p, &mut mem);
        assert_eq!(r.dispatches, 1);
        assert_eq!(r.cycles, 1);
    }

    #[test]
    fn fully_empty_program() {
        let w = 4;
        let m: Dmm = Machine::new(w, 3);
        let mut mem: BankedMemory<u64> = BankedMemory::new(w, 4);
        let mut p: Program<u64> = Program::new(4);
        p.phase("nothing", |_| None);
        let r = m.execute(&p, &mut mem);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.dispatches, 0);
    }

    #[test]
    fn latency_pipelines_across_warps() {
        // With many warps and conflict-free access, latency is hidden:
        // time = W + l - 1, not W·l.
        let w = 4;
        let l = 10;
        let m: Dmm = Machine::new(w, l);
        let mut mem = BankedMemory::new(w, 16 * 4);
        let mut p: Program<u64> = Program::new(16 * 4); // 16 warps
        p.phase("read", |t| Some(MemOp::Read(t as u64)));
        let r = m.execute(&p, &mut mem);
        assert_eq!(r.cycles, 16 + l - 1);
    }

    #[test]
    fn dependent_phases_respect_latency() {
        // One warp, two dependent phases: the write cannot be injected
        // until the read completes at l-1; write completes at l + l - 1.
        let w = 4;
        let l = 6;
        let m: Dmm = Machine::new(w, l);
        let mut mem = BankedMemory::new(w, 8);
        let mut p: Program<u64> = Program::new(4);
        p.phase("read", |t| Some(MemOp::Read(t as u64)));
        p.phase("write", |t| {
            Some(MemOp::Write(4 + t as u64, WriteSource::LastRead))
        });
        let r = m.execute(&p, &mut mem);
        assert_eq!(r.cycles, 2 * l);
    }

    #[test]
    fn umm_charges_rows_not_banks() {
        // A diagonal access: addresses {0, w+1, 2w+2, 3w+3} are in distinct
        // banks (DMM: 1 stage) but distinct rows (UMM: w stages).
        let w = 4;
        let mut p: Program<u64> = Program::new(4);
        p.phase("diag", move |t| Some(MemOp::Read((t * w + t) as u64)));

        let dmm: Dmm = Machine::new(w, 1);
        let umm: Umm = Machine::new(w, 1);
        let mut mem = BankedMemory::new(w, w * w);
        let rd = dmm.execute(&p, &mut mem);
        let ru = umm.execute(&p, &mut mem);
        assert_eq!(rd.total_stages, 1);
        assert_eq!(ru.total_stages, 4);
        assert!(ru.cycles > rd.cycles);
    }

    #[test]
    fn umm_same_row_is_one_stage() {
        let w = 4usize;
        let umm: Umm = Machine::new(w, 2);
        let mut mem = BankedMemory::new(w, 16);
        let mut p: Program<u64> = Program::new(4);
        // All of row 2, permuted across lanes.
        let addrs = [9u64, 8, 11, 10];
        p.phase("row", move |t| Some(MemOp::Read(addrs[t])));
        let r = umm.execute(&p, &mut mem);
        assert_eq!(r.total_stages, 1);
    }

    #[test]
    #[should_panic(expected = "multiple of the width")]
    fn partial_warp_rejected() {
        let m: Dmm = Machine::new(4, 1);
        let mut mem: BankedMemory<u64> = BankedMemory::new(4, 8);
        let mut p: Program<u64> = Program::new(6);
        p.phase("read", |t| Some(MemOp::Read(t as u64)));
        let _ = m.execute(&p, &mut mem);
    }

    #[test]
    #[should_panic(expected = "latency must be at least 1")]
    fn zero_latency_rejected() {
        let _: Dmm = Machine::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "before any read")]
    fn write_lastread_without_read_panics() {
        let m: Dmm = Machine::new(4, 1);
        let mut mem: BankedMemory<u64> = BankedMemory::new(4, 4);
        let mut p: Program<u64> = Program::new(4);
        p.phase("write", |t| {
            Some(MemOp::Write(t as u64, WriteSource::LastRead))
        });
        let _ = m.execute(&p, &mut mem);
    }

    #[test]
    fn reduced_write_applies_reducer_over_history() {
        let w = 4;
        let m: Dmm = Machine::new(w, 1);
        let mut mem = BankedMemory::from_words(w, (0u64..12).collect());
        let mut p: Program<u64> = Program::new(4);
        p.phase("r1", |t| Some(MemOp::Read(t as u64)));
        p.phase("r2", |t| Some(MemOp::Read(4 + t as u64)));
        p.phase("write", |t| {
            Some(MemOp::Write(8 + t as u64, WriteSource::Reduced))
        });
        m.execute_with(&p, &mut mem, |reads| reads.iter().sum());
        for t in 0..4u64 {
            assert_eq!(mem.read(8 + t), t + (4 + t), "sum of the two reads");
        }
    }

    #[test]
    fn reduced_timing_identical_to_lastread() {
        // The reducer is register arithmetic: it must not change timing.
        let w = 4;
        let m: Dmm = Machine::new(w, 3);
        let build = |src: WriteSource<u64>| {
            let mut p: Program<u64> = Program::new(16);
            p.phase("read", |t| Some(MemOp::Read(t as u64)));
            p.phase("write", move |t| Some(MemOp::Write(16 + t as u64, src)));
            p
        };
        let mut mem1 = BankedMemory::new(w, 32);
        let r1 = m.execute_with(&build(WriteSource::Reduced), &mut mem1, |r| r[0]);
        let mut mem2 = BankedMemory::new(w, 32);
        let r2 = m.execute(&build(WriteSource::LastRead), &mut mem2);
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(mem1, mem2);
    }

    #[test]
    #[should_panic(expected = "supply a reducer")]
    fn plain_execute_rejects_reduced() {
        let w = 4;
        let m: Dmm = Machine::new(w, 1);
        let mut mem: BankedMemory<u64> = BankedMemory::from_words(w, (0..8).collect());
        let mut p: Program<u64> = Program::new(4);
        p.phase("read", |t| Some(MemOp::Read(t as u64)));
        p.phase("write", |t| {
            Some(MemOp::Write(4 + t as u64, WriteSource::Reduced))
        });
        let _ = m.execute(&p, &mut mem);
    }

    #[test]
    fn round_robin_is_fair() {
        // Two warps with equal work should interleave; total stage count
        // and cycles must not depend on warp order beyond the RR rule.
        let w = 4;
        let m: Dmm = Machine::new(w, 1);
        let mut mem = BankedMemory::new(w, 64);
        let mut p: Program<u64> = Program::new(8);
        p.phase("r1", |t| Some(MemOp::Read(t as u64)));
        p.phase("r2", |t| Some(MemOp::Read(8 + t as u64)));
        let r = m.execute(&p, &mut mem);
        assert_eq!(r.dispatches, 4);
        assert_eq!(r.cycles, 4); // 4 stages, l = 1
    }
}
