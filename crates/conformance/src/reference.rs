//! Independent naive reference implementations.
//!
//! Every oracle compares an optimized path against one of these. They are
//! written with *different algorithms and data structures* than any
//! production path (hash maps instead of sorting or open addressing), so
//! a shared bug cannot hide on both sides of a comparison.

use rand::Rng;
use rap_core::multidim::Scheme4d;
use rap_dmm::{
    BankedMemory, DispatchEvent, ExecReport, Machine, MemOp, MergedAccess, PhaseStats, Program,
    StageModel, WriteSource,
};
use rap_stats::IntHistogram;
use std::collections::{BTreeSet, HashMap, HashSet};

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

/// The merged view of one warp phase, built with a `BTreeSet` of the
/// issued addresses (sorted, duplicates merged) and a plain count per bank.
#[must_use]
pub fn naive_merge<T>(width: usize, ops: &[Option<MemOp<T>>]) -> MergedAccess {
    let addresses: BTreeSet<u64> = ops.iter().flatten().map(MemOp::address).collect();
    let mut bank_loads = vec![0u32; width];
    for &a in &addresses {
        bank_loads[(a % width as u64) as usize] += 1;
    }
    MergedAccess {
        addresses: addresses.into_iter().collect(),
        bank_loads,
    }
}

/// The DMM/UMM dispatch loop as it was before the machine's single
/// cursor-based loop: every iteration re-scans every warp's current phase,
/// merges with [`naive_merge`], and keeps each thread's whole read history.
/// It applies the program to `memory` and returns the report together with
/// the dispatch events `rap_dmm::trace` must reproduce.
///
/// # Panics
/// As `Machine::execute_with`.
#[allow(clippy::needless_range_loop)] // warp indexes parallel state arrays
pub fn naive_execute<M: StageModel, T: Copy>(
    machine: &Machine<M>,
    program: &Program<T>,
    memory: &mut BankedMemory<T>,
    reducer: impl Fn(&[T]) -> T,
) -> (ExecReport, Vec<DispatchEvent>) {
    let w = machine.width();
    let p = program.num_threads();
    assert!(
        p.is_multiple_of(w),
        "thread count {p} must be a multiple of the width {w}"
    );
    let n_warps = p / w;
    let n_phases = program.num_phases();

    let mut phase_stats: Vec<PhaseStats> = program
        .phases()
        .iter()
        .map(|ph| PhaseStats {
            label: ph.label.clone(),
            congestion: IntHistogram::with_max(w as u32),
            stages: 0,
        })
        .collect();

    // Per-warp cursor and readiness.
    let mut pc = vec![0usize; n_warps];
    let mut ready_at = vec![0u64; n_warps];
    // Per-thread read history (the last entry is the `LastRead`
    // register; the whole vector feeds `WriteSource::Reduced`).
    let mut history: Vec<Vec<T>> = vec![Vec::new(); p];
    let mut events = Vec::new();

    let mut port_time: u64 = 0; // next free injection slot
    let mut last_completion: u64 = 0;
    let mut dispatches: u64 = 0;
    let mut total_stages: u64 = 0;
    let mut any_dispatch = false;
    let mut rr = 0usize; // round-robin scan start

    loop {
        // Skip phases in which a warp issues nothing (not dispatched).
        for warp in 0..n_warps {
            while pc[warp] < n_phases {
                let phase = &program.phases()[pc[warp]];
                let ops = &phase.ops[warp * w..(warp + 1) * w];
                if ops.iter().any(Option::is_some) {
                    break;
                }
                pc[warp] += 1;
            }
        }
        if pc.iter().all(|&c| c >= n_phases) {
            break;
        }

        // Pick the next warp to dispatch: round-robin among warps that
        // are ready at the current port time; if none, advance time.
        let ready_warp = (0..n_warps)
            .map(|k| (rr + k) % n_warps)
            .find(|&wi| pc[wi] < n_phases && ready_at[wi] <= port_time);
        let Some(warp) = ready_warp else {
            port_time = (0..n_warps)
                .filter(|&wi| pc[wi] < n_phases)
                .map(|wi| ready_at[wi])
                .min()
                .expect("some warp must remain");
            continue;
        };
        rr = (warp + 1) % n_warps;

        let phase_idx = pc[warp];
        let phase = &program.phases()[phase_idx];
        let ops = &phase.ops[warp * w..(warp + 1) * w];
        let merged = naive_merge(w, ops);
        debug_assert!(!merged.is_empty(), "empty phases were skipped above");

        // Apply functional effects at dispatch.
        naive_apply_effects(ops, warp * w, memory, &mut history, &reducer);

        // Timing: the access occupies `stages` injection slots.
        let stages = u64::from(M::stages(w, &merged));
        let start = port_time;
        port_time = start + stages;
        let completion = start + stages - 1 + (machine.latency() - 1);
        ready_at[warp] = completion + 1;
        last_completion = last_completion.max(completion);
        pc[warp] += 1;

        dispatches += 1;
        total_stages += stages;
        any_dispatch = true;
        phase_stats[phase_idx]
            .congestion
            .record(merged.congestion());
        phase_stats[phase_idx].stages += stages;

        let hottest_bank = merged
            .bank_loads
            .iter()
            .enumerate()
            .max_by_key(|(_, &l)| l)
            .map_or(0, |(b, _)| b as u32);
        events.push(DispatchEvent {
            warp,
            phase: phase_idx,
            label: phase.label.clone(),
            start,
            stages: stages as u32,
            completion,
            hottest_bank,
        });
    }

    let report = ExecReport {
        cycles: if any_dispatch { last_completion + 1 } else { 0 },
        dispatches,
        total_stages,
        phases: phase_stats,
    };
    (report, events)
}

/// Apply one warp phase's reads/writes to memory and registers.
fn naive_apply_effects<T: Copy>(
    ops: &[Option<MemOp<T>>],
    thread_base: usize,
    memory: &mut BankedMemory<T>,
    history: &mut [Vec<T>],
    reducer: &impl Fn(&[T]) -> T,
) {
    // Reads first (a phase is all-reads or all-writes, so order within
    // the phase is immaterial; doing reads first is future-proof).
    for (lane, op) in ops.iter().enumerate() {
        if let Some(MemOp::Read(a)) = op {
            history[thread_base + lane].push(memory.read(*a));
        }
    }
    // Writes: lowest-numbered thread wins on address collisions, so
    // iterate lanes in reverse and let earlier lanes overwrite.
    for (lane, op) in ops.iter().enumerate().rev() {
        if let Some(MemOp::Write(a, src)) = op {
            let reads = &history[thread_base + lane];
            let value = match src {
                WriteSource::Const(v) => *v,
                WriteSource::LastRead => {
                    *reads.last().expect("thread wrote LastRead before any read")
                }
                WriteSource::Reduced => reducer(reads),
            };
            memory.write(*a, value);
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
