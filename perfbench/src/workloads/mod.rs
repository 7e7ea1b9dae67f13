//! The four workloads. Each builds its inputs from the seed in `setup`
//! (repeated, so set-up time is a median), then `measure`s for a time
//! budget, checking every output as it goes.

use crate::machine::Machine;
use crate::metrics::RunResult;
use crate::server::Launcher;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Duration;

pub mod cluster;
pub mod mc;
pub mod serve;
pub mod tables;

/// How big the inputs are: the benchmark proper, or a tiny run for the
/// package's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Small sizes that finish in a second or two.
    Tiny,
}

/// Everything a workload needs from the command line and the host.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Input sizes.
    pub scale: Scale,
    /// How servers are started.
    pub launcher: Launcher,
    /// The host record (thread counts).
    pub machine: Machine,
    /// Root of the checkout (for `results/REPORT.md`).
    pub root: PathBuf,
}

/// What a measurement produced for the end-to-end metrics.
#[derive(Debug, Default, Clone)]
pub struct Measured {
    /// Latency of each unit operation in time order, ms.
    pub latencies_ms: Vec<f64>,
    /// The reported operation latency, ms (see `fast_decile`).
    pub latency_ms: f64,
    /// Work units per second.
    pub throughput: f64,
}

/// The batch workloads' estimator: the 10th percentile of operation
/// latencies, or the 90th of rates (`higher == true`). Other tenants'
/// load on the shared host only ever slows an operation down, and its
/// intensity drifts between runs; the fast decile tracks the program's
/// own cost where the median tracks that drift. Medians and tails are
/// still reported by the traced run (`op.p50_ms`, `op.p99_ms`).
#[must_use]
pub fn fast_decile(values: &[f64], higher: bool) -> f64 {
    crate::util::percentile(values, if higher { 90.0 } else { 10.0 })
}

/// One workload (see the module docs).
pub trait Workload {
    /// Build inputs and start whatever the workload drives, replacing the
    /// state of any earlier `setup`.
    ///
    /// # Errors
    /// Anything that prevents measuring.
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String>;

    /// Run operations for `budget`, recording spans in `tracer` and
    /// failures and workload counters in `out`. `full` is false for the
    /// halves of a traced run, which skip phases that only feed
    /// end-to-end metrics.
    ///
    /// # Errors
    /// Infrastructure failures (correctness mismatches go to `out`).
    fn measure(
        &mut self,
        ctx: &Ctx,
        budget: Duration,
        tracer: &mut Tracer,
        out: &mut RunResult,
        full: bool,
    ) -> Result<Measured, String>;

    /// Collect final counters and peak RSS into `out` and stop every
    /// process the workload started.
    ///
    /// # Errors
    /// A final check that failed to run.
    fn finish(&mut self, ctx: &Ctx, out: &mut RunResult) -> Result<(), String>;
}

/// The workload called `name`.
///
/// # Errors
/// An unknown name.
pub fn by_name(name: &str) -> Result<Box<dyn Workload>, String> {
    match name {
        "mc-narrow" => Ok(Box::<mc::McNarrow>::default()),
        "paper-tables" => Ok(Box::<tables::PaperTables>::default()),
        "serve-mix" => Ok(Box::<serve::ServeMix>::default()),
        "cluster-sweep" => Ok(Box::<cluster::ClusterSweep>::default()),
        other => Err(format!(
            "unknown workload '{other}' (expected mc-narrow|paper-tables|serve-mix|cluster-sweep)"
        )),
    }
}
