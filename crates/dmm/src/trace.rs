//! Dispatch-level execution traces.
//!
//! [`Machine::execute`](crate::Machine::execute) reports aggregates; when
//! debugging a kernel's bank behaviour you want the *schedule*: which
//! warp dispatched when, how many stages it burned, which bank was the
//! bottleneck. [`trace`] collects one [`DispatchEvent`] per warp-phase
//! dispatch and renders a per-warp timeline.
//!
//! Tracing runs the machine's own dispatch loop (the scheduler is
//! deterministic) with an observer that records events instead of applying
//! memory effects, so it can be used after the fact without having paid for
//! event collection during measurement runs, and it cannot drift from
//! [`Machine::execute`](crate::Machine::execute).

use crate::machine::{Machine, StageModel};
use crate::program::Program;
use serde::{Deserialize, Serialize};

/// One warp-phase dispatch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DispatchEvent {
    /// Warp index.
    pub warp: usize,
    /// Program phase index.
    pub phase: usize,
    /// Phase label.
    pub label: String,
    /// First cycle the access occupied the injection port.
    pub start: u64,
    /// Pipeline stages occupied (= congestion on the DMM).
    pub stages: u32,
    /// Cycle the last request completed.
    pub completion: u64,
    /// The bank with the highest unique-request load.
    pub hottest_bank: u32,
}

/// A complete execution trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Trace {
    /// Events in dispatch order.
    pub events: Vec<DispatchEvent>,
}

impl Trace {
    /// Total time units (matches `ExecReport::cycles`).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.events
            .iter()
            .map(|e| e.completion + 1)
            .max()
            .unwrap_or(0)
    }

    /// Events of one warp, in dispatch order.
    #[must_use]
    pub fn warp_events(&self, warp: usize) -> Vec<&DispatchEvent> {
        self.events.iter().filter(|e| e.warp == warp).collect()
    }

    /// The event with the most stages (the kernel's worst serialization).
    #[must_use]
    pub fn worst(&self) -> Option<&DispatchEvent> {
        self.events.iter().max_by_key(|e| e.stages)
    }

    /// Render a compact per-warp timeline, one line per dispatch:
    /// `cycle  warp  phase-label  stages  hottest-bank`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("start    warp  stages  bank  phase\n");
        for e in &self.events {
            out.push_str(&format!(
                "{:>6}  {:>5}  {:>6}  {:>4}  {}\n",
                e.start, e.warp, e.stages, e.hottest_bank, e.label
            ));
        }
        out
    }

    /// Render an ASCII Gantt chart: one lane per warp, one column per
    /// cycle. `#` marks cycles the warp occupies the injection port
    /// (its replays), `.` marks in-flight latency until completion.
    /// Charts wider than `max_cols` are truncated with an ellipsis —
    /// meant for small kernels (see the `inspect_layout` example).
    #[must_use]
    pub fn render_gantt(&self, max_cols: usize) -> String {
        let total = self.cycles() as usize;
        if total == 0 {
            return String::from("(empty trace)\n");
        }
        let n_warps = self.events.iter().map(|e| e.warp).max().unwrap_or(0) + 1;
        let cols = total.min(max_cols.max(1));
        let mut lanes = vec![vec![b' '; cols]; n_warps];
        for e in &self.events {
            let busy_end = e.start + u64::from(e.stages);
            for t in e.start..busy_end.min(cols as u64) {
                lanes[e.warp][t as usize] = b'#';
            }
            for t in busy_end..(e.completion + 1).min(cols as u64) {
                lanes[e.warp][t as usize] = b'.';
            }
        }
        let mut out = String::new();
        out.push_str(&format!(
            "cycles 0..{total}{}\n",
            if total > cols { " (truncated)" } else { "" }
        ));
        for (warp, lane) in lanes.into_iter().enumerate() {
            out.push_str(&format!(
                "warp {warp:>3} |{}{}\n",
                String::from_utf8(lane).expect("ascii"),
                if total > cols { "…" } else { "|" }
            ));
        }
        out
    }
}

/// Re-run `program`'s schedule on `machine` and collect the trace.
///
/// Memory effects are *not* applied (tracing is schedule-only); run
/// [`Machine::execute`](crate::Machine::execute) for the data.
///
/// # Panics
/// As `Machine::execute` (thread-count validation).
#[must_use]
pub fn trace<M: StageModel, T: Copy>(machine: &Machine<M>, program: &Program<T>) -> Trace {
    let mut events = Vec::new();
    machine.dispatch_loop(program, |warp, phase, merged, start, stages, completion| {
        let hottest_bank = merged
            .bank_loads
            .iter()
            .enumerate()
            .max_by_key(|(_, &l)| l)
            .map_or(0, |(b, _)| b as u32);
        events.push(DispatchEvent {
            warp,
            phase,
            label: program.phases()[phase].label.clone(),
            start,
            stages,
            completion,
            hottest_bank,
        });
    });
    Trace { events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::MemOp;
    use crate::machine::Dmm;
    use crate::memory::BankedMemory;

    fn stride_program(w: usize) -> Program<u64> {
        let mut p = Program::new(w * w);
        p.phase("stride", move |t| {
            Some(MemOp::Read(((t % w) * w + t / w) as u64))
        });
        p
    }

    #[test]
    fn timeline_consistency_with_execute() {
        // The trace must predict exactly the cycle count execute reports.
        for (w, l) in [(4usize, 1u64), (4, 3), (8, 5)] {
            let machine: Dmm = Machine::new(w, l);
            let program = stride_program(w);
            let tr = trace(&machine, &program);
            let mut mem = BankedMemory::new(w, w * w);
            let report = machine.execute(&program, &mut mem);
            assert_eq!(tr.cycles(), report.cycles, "w={w} l={l}");
            assert_eq!(tr.events.len() as u64, report.dispatches);
        }
    }

    #[test]
    fn events_expose_the_hot_bank() {
        let machine: Dmm = Machine::new(4, 1);
        let mut p: Program<u64> = Program::new(4);
        // All four lanes hit bank 2 with distinct addresses.
        p.phase("hot", |t| Some(MemOp::Read(2 + 4 * t as u64)));
        let tr = trace(&machine, &p);
        assert_eq!(tr.events.len(), 1);
        assert_eq!(tr.events[0].stages, 4);
        assert_eq!(tr.events[0].hottest_bank, 2);
        assert_eq!(tr.worst().unwrap().stages, 4);
    }

    #[test]
    fn warp_events_filter() {
        let machine: Dmm = Machine::new(4, 1);
        let mut p: Program<u64> = Program::new(8);
        p.phase("a", |t| Some(MemOp::Read(t as u64)));
        p.phase("b", |t| Some(MemOp::Read(8 + t as u64)));
        let tr = trace(&machine, &p);
        assert_eq!(tr.warp_events(0).len(), 2);
        assert_eq!(tr.warp_events(1).len(), 2);
    }

    #[test]
    fn render_contains_labels() {
        let machine: Dmm = Machine::new(4, 1);
        let mut p: Program<u64> = Program::new(4);
        p.phase("my-phase", |t| Some(MemOp::Read(t as u64)));
        let s = trace(&machine, &p).render();
        assert!(s.contains("my-phase"));
        assert!(s.starts_with("start"));
    }

    #[test]
    fn gantt_shows_port_occupancy() {
        // One warp, four distinct addresses in bank 0, latency 2:
        // 4 port cycles (####) then one latency cycle (.).
        let machine: Dmm = Machine::new(4, 2);
        let mut p: Program<u64> = Program::new(4);
        p.phase("hot", |t| Some(MemOp::Read((t as u64) * 4)));
        let tr = trace(&machine, &p);
        let g = tr.render_gantt(80);
        assert!(g.starts_with("cycles 0.."));
        let lane = g.lines().nth(1).unwrap();
        assert!(lane.contains("####."), "got {lane}");
    }

    #[test]
    fn gantt_truncates() {
        let machine: Dmm = Machine::new(4, 1);
        let p = stride_program(4); // 16 + 0 cycles
        let tr = trace(&machine, &p);
        let g = tr.render_gantt(5);
        assert!(g.contains("(truncated)"));
        assert!(g.lines().nth(1).unwrap().ends_with('…'));
    }

    #[test]
    fn gantt_empty() {
        let machine: Dmm = Machine::new(4, 1);
        let p: Program<u64> = Program::new(4);
        assert_eq!(trace(&machine, &p).render_gantt(10), "(empty trace)\n");
    }

    #[test]
    fn empty_program_empty_trace() {
        let machine: Dmm = Machine::new(4, 2);
        let p: Program<u64> = Program::new(4);
        let tr = trace(&machine, &p);
        assert_eq!(tr.cycles(), 0);
        assert!(tr.worst().is_none());
    }
}
