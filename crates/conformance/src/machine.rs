//! Oracles for the timing machines: simulated DMM/UMM execution against
//! the paper's analytic timing formulas, against the naive congestion
//! and row counts, and against the naive dispatch loop.

use crate::oracle::{Divergence, Oracle};
use crate::reference::{naive_congestion, naive_distinct_rows, naive_execute};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rap_dmm::{
    contiguous_time, stride_time, trace, BankedMemory, Dmm, Machine, MemOp, Program, StageModel,
    Umm, WriteSource,
};

use crate::pattern::splitmix64;

/// Widths used for the whole-grid timing modes (kept small so a case
/// stays far under a millisecond).
const GRID_WIDTHS: &[usize] = &[1, 2, 3, 4, 8, 16, 32, 64];

/// Widths used for the single-warp modes (full fast-path boundary sweep).
const WARP_WIDTHS: &[usize] = &[1, 2, 3, 4, 5, 7, 8, 16, 31, 32, 33, 64, 127, 128, 129, 256];

/// Cross-checks simulated DMM execution against the closed-form times of
/// paper §II and against the analytic `congestion + latency − 1` rule.
///
/// Each seed decodes one of four modes:
///
/// 0. a single warp with randomly masked lanes and random addresses —
///    `cycles = c + l − 1` (0 when idle) and `total_stages = c`, where
///    `c` is the naive congestion of the active addresses;
/// 1. `W` warps of contiguous access — `cycles = W + l − 1`;
/// 2. the full stride (column) access — `cycles = w² + l − 1`;
/// 3. one warp with two dependent all-active phases (read then write) —
///    `cycles = c₁ + c₂ + 2l − 2`.
#[derive(Debug, Default)]
pub struct DmmTimingOracle;

impl DmmTimingOracle {
    fn run(seed: u64) -> (String, String, String) {
        let mut rng = SmallRng::seed_from_u64(splitmix64(seed ^ 0x5155_aa33_0f0f_c3c3));
        let latency = rng.gen_range(1..=8u64);
        match rng.gen_range(0..4u32) {
            0 => {
                // Single warp, masked lanes, random addresses.
                let width = WARP_WIDTHS[rng.gen_range(0..WARP_WIDTHS.len())];
                let bound = (width * width).max(4) as u64;
                let lanes: Vec<Option<u64>> = (0..width)
                    .map(|_| (rng.gen_range(0..4u32) != 0).then(|| rng.gen_range(0..bound)))
                    .collect();
                let active: Vec<u64> = lanes.iter().flatten().copied().collect();
                let c = u64::from(naive_congestion(width, &active));
                let expected = if c == 0 { 0 } else { c + latency - 1 };

                let mut program: Program<u64> = Program::new(width);
                let ops = lanes.clone();
                program.phase("masked", move |t| ops[t].map(MemOp::Read));
                let mut memory = BankedMemory::new(width, bound as usize);
                let machine: Dmm = Machine::new(width, latency);
                let report = machine.execute(&program, &mut memory);

                let desc = format!(
                    "mode=single-warp width={width} l={latency} active={} congestion={c}",
                    active.len()
                );
                (
                    desc,
                    format!("{expected} cycles / {c} stages"),
                    format!("{} cycles / {} stages", report.cycles, report.total_stages),
                )
            }
            1 => {
                // Multi-warp contiguous access.
                let width = GRID_WIDTHS[rng.gen_range(0..GRID_WIDTHS.len())];
                let warps = rng.gen_range(1..=16usize);
                let mut program: Program<u64> = Program::new(width * warps);
                program.phase("contig", |t| Some(MemOp::Read(t as u64)));
                let mut memory = BankedMemory::new(width, width * warps);
                let machine: Dmm = Machine::new(width, latency);
                let report = machine.execute(&program, &mut memory);
                let desc = format!("mode=contiguous width={width} warps={warps} l={latency}");
                (
                    desc,
                    format!("{} cycles", contiguous_time(warps as u64, latency)),
                    format!("{} cycles", report.cycles),
                )
            }
            2 => {
                // Full stride (column-major) access: every warp hits one bank.
                let width = GRID_WIDTHS[rng.gen_range(0..GRID_WIDTHS.len())];
                let w = width;
                let mut program: Program<u64> = Program::new(w * w);
                program.phase("stride", move |t| {
                    Some(MemOp::Read(((t % w) * w + t / w) as u64))
                });
                let mut memory = BankedMemory::new(width, w * w);
                let machine: Dmm = Machine::new(width, latency);
                let report = machine.execute(&program, &mut memory);
                let desc = format!("mode=stride width={width} l={latency}");
                (
                    desc,
                    format!("{} cycles", stride_time(w as u64, w as u64, latency)),
                    format!("{} cycles", report.cycles),
                )
            }
            _ => {
                // One warp, two dependent all-active phases.
                let width = WARP_WIDTHS[rng.gen_range(0..WARP_WIDTHS.len())];
                let bound = (width * width).max(4) as u64;
                let reads: Vec<u64> = (0..width).map(|_| rng.gen_range(0..bound)).collect();
                let writes: Vec<u64> = (0..width).map(|_| rng.gen_range(0..bound)).collect();
                let c1 = u64::from(naive_congestion(width, &reads));
                let c2 = u64::from(naive_congestion(width, &writes));
                let expected = c1 + c2 + 2 * latency - 2;

                let mut program: Program<u64> = Program::new(width);
                let r = reads.clone();
                let w = writes.clone();
                program.phase("read", move |t| Some(MemOp::Read(r[t])));
                program.phase("write", move |t| {
                    Some(MemOp::Write(w[t], WriteSource::LastRead))
                });
                let mut memory = BankedMemory::new(width, bound as usize);
                let machine: Dmm = Machine::new(width, latency);
                let report = machine.execute(&program, &mut memory);
                let desc = format!("mode=two-phase width={width} l={latency} c1={c1} c2={c2}");
                (
                    desc,
                    format!("{expected} cycles"),
                    format!("{} cycles", report.cycles),
                )
            }
        }
    }
}

impl Oracle for DmmTimingOracle {
    fn name(&self) -> &'static str {
        "dmm:timing-vs-analytic"
    }

    fn check(&mut self, seed: u64) -> Result<(), Divergence> {
        let (desc, expected, actual) = Self::run(seed);
        if expected == actual {
            Ok(())
        } else {
            Err(Divergence::new(self.name(), seed, desc, expected, actual))
        }
    }
}

/// Cross-checks simulated UMM execution against the naive distinct-row
/// count: one masked warp must take `rows` stages and `rows + l − 1`
/// cycles (0 when idle).
#[derive(Debug, Default)]
pub struct UmmRowsOracle;

impl Oracle for UmmRowsOracle {
    fn name(&self) -> &'static str {
        "umm:stages-vs-rows"
    }

    fn check(&mut self, seed: u64) -> Result<(), Divergence> {
        let mut rng = SmallRng::seed_from_u64(splitmix64(seed ^ 0x7e57_0000_u64));
        let latency = rng.gen_range(1..=8u64);
        let width = WARP_WIDTHS[rng.gen_range(0..WARP_WIDTHS.len())];
        let bound = (width * width).max(4) as u64;
        let lanes: Vec<Option<u64>> = (0..width)
            .map(|_| (rng.gen_range(0..4u32) != 0).then(|| rng.gen_range(0..bound)))
            .collect();
        let active: Vec<u64> = lanes.iter().flatten().copied().collect();
        let rows = u64::from(naive_distinct_rows(width, &active));
        let expected = if rows == 0 { 0 } else { rows + latency - 1 };

        let mut program: Program<u64> = Program::new(width);
        let ops = lanes.clone();
        program.phase("masked", move |t| ops[t].map(MemOp::Read));
        let mut memory = BankedMemory::new(width, bound as usize);
        let machine: Umm = Machine::new(width, latency);
        let report = machine.execute(&program, &mut memory);

        if report.cycles == expected && report.total_stages == rows {
            Ok(())
        } else {
            Err(Divergence::new(
                self.name(),
                seed,
                format!(
                    "width={width} l={latency} active={} rows={rows}",
                    active.len()
                ),
                format!("{expected} cycles / {rows} stages"),
                format!("{} cycles / {} stages", report.cycles, report.total_stages),
            ))
        }
    }
}

/// Cross-checks the machines' one dispatch loop — `Machine::execute_with`
/// and `rap_dmm::trace` — against [`naive_execute`], the loop it replaced:
/// the [`rap_dmm::ExecReport`], the final memory and every dispatch event
/// must agree bit for bit.
///
/// Each seed decodes a random program on the DMM or the UMM (latency
/// 1..=8): a width from `WARP_WIDTHS` with one or two warps or from
/// `GRID_WIDTHS` with up to eight, and one to five phases, each all
/// reads or all writes and shaped as all-idle, masked random lanes, a
/// broadcast, contiguous with whole warps idle, or full random. Writes
/// draw `Const`, `LastRead` (only on threads that have read) or
/// `Reduced` sources.
#[derive(Debug, Default)]
pub struct DmmFastVsNaiveOracle;

impl DmmFastVsNaiveOracle {
    fn program(rng: &mut SmallRng) -> (usize, usize, Program<u64>) {
        let (width, warps) = if rng.gen_bool(0.5) {
            (
                WARP_WIDTHS[rng.gen_range(0..WARP_WIDTHS.len())],
                rng.gen_range(1..=2usize),
            )
        } else {
            (
                GRID_WIDTHS[rng.gen_range(0..GRID_WIDTHS.len())],
                rng.gen_range(1..=8usize),
            )
        };
        let threads = width * warps;
        let mem_len = (2 * threads).max(4) as u64;
        let mut has_read = vec![false; threads];
        let mut program: Program<u64> = Program::new(threads);
        for phase in 0..rng.gen_range(1..=5usize) {
            let write = rng.gen_bool(0.5);
            let shape = rng.gen_range(0..5u32);
            let broadcast = rng.gen_range(0..mem_len);
            let idle_warps: Vec<bool> = (0..warps).map(|_| rng.gen_bool(0.3)).collect();
            let ops: Vec<Option<MemOp<u64>>> = (0..threads)
                .map(|t| {
                    let address = match shape {
                        0 => None,
                        1 => rng.gen_bool(0.7).then(|| rng.gen_range(0..mem_len)),
                        2 => Some(broadcast),
                        3 => (!idle_warps[t / width]).then_some(t as u64),
                        _ => Some(rng.gen_range(0..mem_len)),
                    }?;
                    if !write {
                        has_read[t] = true;
                        return Some(MemOp::Read(address));
                    }
                    let source = match rng.gen_range(0..3u32) {
                        0 => WriteSource::Const(rng.gen_range(0..1000)),
                        1 if has_read[t] => WriteSource::LastRead,
                        _ => WriteSource::Reduced,
                    };
                    Some(MemOp::Write(address, source))
                })
                .collect();
            program.phase(format!("p{phase}"), |t| ops[t]);
        }
        (width, mem_len as usize, program)
    }

    /// `None` when both loops agree, else `(expected, actual)`.
    fn compare<M: StageModel>(
        machine: &Machine<M>,
        program: &Program<u64>,
        mem_len: usize,
    ) -> Option<(String, String)> {
        let reducer = |reads: &[u64]| {
            reads
                .iter()
                .fold(17u64, |acc, &x| acc.wrapping_mul(31).wrapping_add(x))
        };
        let initial: Vec<u64> = (0..mem_len as u64).map(|a| a * 7 + 3).collect();
        let mut naive_memory = BankedMemory::from_words(machine.width(), initial.clone());
        let (naive_report, naive_events) =
            naive_execute(machine, program, &mut naive_memory, reducer);
        let mut memory = BankedMemory::from_words(machine.width(), initial);
        let report = machine.execute_with(program, &mut memory, reducer);
        let events = trace(machine, program).events;
        let summary = |r: &rap_dmm::ExecReport| {
            format!(
                "{} cycles / {} dispatches / {} stages",
                r.cycles, r.dispatches, r.total_stages
            )
        };
        if report != naive_report {
            return Some((summary(&naive_report), summary(&report)));
        }
        if memory != naive_memory {
            let at = (0..mem_len as u64)
                .find(|&a| memory.read(a) != naive_memory.read(a))
                .expect("memories differ somewhere");
            return Some((
                format!("memory[{at}] = {}", naive_memory.read(at)),
                format!("memory[{at}] = {}", memory.read(at)),
            ));
        }
        if events != naive_events {
            let k = events
                .iter()
                .zip(&naive_events)
                .position(|(a, b)| a != b)
                .unwrap_or(events.len().min(naive_events.len()));
            return Some((
                format!("event {k}: {:?}", naive_events.get(k)),
                format!("event {k}: {:?}", events.get(k)),
            ));
        }
        None
    }
}

impl Oracle for DmmFastVsNaiveOracle {
    fn name(&self) -> &'static str {
        "dmm:fast-vs-naive"
    }

    fn check(&mut self, seed: u64) -> Result<(), Divergence> {
        let mut rng = SmallRng::seed_from_u64(splitmix64(seed ^ 0xd15a_7c40_0000_0001));
        let latency = rng.gen_range(1..=8u64);
        let umm = rng.gen_bool(0.25);
        let (width, mem_len, program) = Self::program(&mut rng);
        let diverged = if umm {
            Self::compare(
                &Machine::<rap_dmm::UnifiedRows>::new(width, latency),
                &program,
                mem_len,
            )
        } else {
            Self::compare(
                &Machine::<rap_dmm::DiscreteBanks>::new(width, latency),
                &program,
                mem_len,
            )
        };
        match diverged {
            None => Ok(()),
            Some((expected, actual)) => Err(Divergence::new(
                self.name(),
                seed,
                format!(
                    "{} width={width} threads={} phases={} l={latency}",
                    if umm { "UMM" } else { "DMM" },
                    program.num_threads(),
                    program.num_phases()
                ),
                expected,
                actual,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::case_seed;

    #[test]
    fn timing_oracles_pass_a_sample() {
        let mut dmm = DmmTimingOracle;
        let mut umm = UmmRowsOracle;
        let mut fast = DmmFastVsNaiveOracle;
        for i in 0..150 {
            let s1 = case_seed(7, dmm.name(), i);
            let s2 = case_seed(7, umm.name(), i);
            let s3 = case_seed(7, fast.name(), i);
            assert!(dmm.check(s1).is_ok(), "dmm seed {s1:#x}");
            assert!(umm.check(s2).is_ok(), "umm seed {s2:#x}");
            assert_eq!(fast.check(s3), Ok(()), "fast-vs-naive seed {s3:#x}");
        }
    }
}
