//! The conformance harness: runs a set of oracles over their seed
//! streams, shrinks failures, and produces a serializable report.
//!
//! The report deliberately carries **no wall-clock data** — two runs from
//! the same base seed serialize identically, which is itself asserted by
//! the determinism test.

use crate::adapt_oracle::AdaptOracle;
use crate::cluster_oracle::ClusterOracle;
use crate::fused_oracle::FusedKernelOracle;
use crate::kernels::{AnalyzePath, FreeFnPath, KernelOracle, MergedAccessPath, ScratchPath};
use crate::machine::{DmmFastVsNaiveOracle, DmmTimingOracle, UmmRowsOracle};
use crate::mapping_oracle::MappingAlgebraOracle;
use crate::oracle::{Divergence, Oracle};
use crate::pattern::case_seed;
use crate::prover_oracle::ProverOracle;
use crate::redraw_oracle::RedrawOracle;
use crate::schedule_oracle::ScheduleOracle;
use crate::synth_oracle::SynthCertificateOracle;
use crate::transpose_oracle::TransposeOracle;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// At most this many (shrunk) divergences are recorded per oracle; the
/// rest are only counted, keeping a catastrophic report readable.
const MAX_RECORDED_PER_ORACLE: u64 = 8;

/// Per-oracle tally.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleRun {
    /// Oracle pair name.
    pub name: String,
    /// Differential cases executed.
    pub cases: u64,
    /// Cases on which reference and optimized path disagreed.
    pub divergences: u64,
}

/// The full result of one harness run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConformanceReport {
    /// Base seed every case seed was derived from.
    pub base_seed: u64,
    /// Total differential cases across all oracles.
    pub cases_run: u64,
    /// Number of oracle pairs exercised.
    pub oracle_pairs: usize,
    /// Per-oracle tallies, in registration order.
    pub oracles: Vec<OracleRun>,
    /// Recorded (shrunk) divergences, at most a handful per oracle.
    pub divergences: Vec<Divergence>,
    /// Shrinking attempts that panicked (always a harness bug).
    pub shrink_panics: u64,
}

impl ConformanceReport {
    /// True when no oracle diverged and no shrinker panicked.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.shrink_panics == 0 && self.oracles.iter().all(|o| o.divergences == 0)
    }

    /// One-paragraph human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let total_div: u64 = self.oracles.iter().map(|o| o.divergences).sum();
        format!(
            "{} cases across {} oracle pairs from base seed {:#x}: {} divergence(s), {} shrink panic(s)",
            self.cases_run, self.oracle_pairs, self.base_seed, total_div, self.shrink_panics
        )
    }
}

/// A set of oracles, each with a per-run case budget.
pub struct Harness {
    entries: Vec<(Box<dyn Oracle>, u64)>,
}

impl std::fmt::Debug for Harness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harness")
            .field("oracles", &self.entries.len())
            .finish()
    }
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    /// An empty harness.
    #[must_use]
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Register an oracle with a case budget.
    pub fn push(&mut self, oracle: Box<dyn Oracle>, budget: u64) -> &mut Self {
        self.entries.push((oracle, budget));
        self
    }

    /// The standard bounded suite wired into `cargo test`: all sixteen
    /// oracle pairs, budgeted to just over 10 000 cases in well under a
    /// minute.
    #[must_use]
    pub fn bounded() -> Self {
        Self::extended(1)
    }

    /// The bounded suite with every budget multiplied by `multiplier` —
    /// the nightly / bench-bin configuration.
    #[must_use]
    pub fn extended(multiplier: u64) -> Self {
        let m = multiplier.max(1);
        let mut h = Self::new();
        h.push(
            Box::new(KernelOracle::new(
                "congestion:analyze-vs-naive",
                AnalyzePath,
            )),
            1850 * m,
        );
        h.push(
            Box::new(KernelOracle::new("congestion:freefn-vs-naive", FreeFnPath)),
            1850 * m,
        );
        h.push(
            Box::new(KernelOracle::new(
                "congestion:scratch-vs-naive",
                ScratchPath::default(),
            )),
            1850 * m,
        );
        h.push(
            Box::new(KernelOracle::new(
                "congestion:merged-vs-naive",
                MergedAccessPath,
            )),
            1850 * m,
        );
        h.push(Box::new(FusedKernelOracle::default()), 700 * m);
        h.push(Box::new(RedrawOracle), 400 * m);
        h.push(Box::new(DmmTimingOracle), 700 * m);
        h.push(Box::new(UmmRowsOracle), 700 * m);
        h.push(Box::new(DmmFastVsNaiveOracle), 700 * m);
        h.push(Box::new(MappingAlgebraOracle), 700 * m);
        h.push(Box::new(TransposeOracle), 400 * m);
        h.push(Box::new(ScheduleOracle), 300 * m);
        h.push(Box::new(ProverOracle), 500 * m);
        h.push(Box::new(SynthCertificateOracle), 150 * m);
        // Each case spins up (and tears down) a real in-process worker
        // pool behind TCP sockets, so the budget is deliberately small:
        // the per-case bit-equality claim, not case volume, is the value.
        h.push(Box::new(ClusterOracle), 12 * m);
        // Each case builds an adaptive controller (certified candidate
        // bounds from the prover) and replays its request sequence three
        // times; prover setup, not case volume, dominates the cost.
        h.push(Box::new(AdaptOracle), 24 * m);
        h
    }

    /// Run every oracle over its seed stream derived from `base_seed`.
    pub fn run(&mut self, base_seed: u64) -> ConformanceReport {
        let mut oracles = Vec::with_capacity(self.entries.len());
        let mut recorded: Vec<Divergence> = Vec::new();
        let mut cases_run = 0u64;
        let mut shrink_panics = 0u64;

        for (oracle, budget) in &mut self.entries {
            let name = oracle.name().to_string();
            let mut divergences = 0u64;
            for index in 0..*budget {
                let seed = case_seed(base_seed, &name, index);
                if let Err(divergence) = oracle.check(seed) {
                    divergences += 1;
                    if divergences <= MAX_RECORDED_PER_ORACLE {
                        match catch_unwind(AssertUnwindSafe(|| oracle.shrink(divergence.clone()))) {
                            Ok(shrunk) => recorded.push(shrunk),
                            Err(_) => {
                                shrink_panics += 1;
                                recorded.push(divergence);
                            }
                        }
                    }
                }
            }
            cases_run += *budget;
            oracles.push(OracleRun {
                name,
                cases: *budget,
                divergences,
            });
        }

        ConformanceReport {
            base_seed,
            cases_run,
            oracle_pairs: self.entries.len(),
            oracles,
            divergences: recorded,
            shrink_panics,
        }
    }
}

/// Limits for [`Harness::run_isolated`]'s per-case recovery.
#[derive(Debug, Clone, Copy)]
pub struct IsolationPolicy {
    /// Additional attempts after a case's check panics.
    pub max_retries: u32,
}

impl Default for IsolationPolicy {
    fn default() -> Self {
        Self { max_retries: 3 }
    }
}

/// A [`ConformanceReport`] plus the chaos bookkeeping of an isolated run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IsolatedRun {
    /// The ordinary report — identical to [`Harness::run`]'s when every
    /// case eventually completed.
    pub report: ConformanceReport,
    /// Case attempts that panicked and were caught.
    pub caught_panics: u64,
    /// Distinct cases that needed at least one retry.
    pub retried_cases: u64,
    /// Cases abandoned after exhausting retries (excluded from the
    /// report's divergence tallies — they are *lost*, not clean).
    pub lost_cases: u64,
}

impl IsolatedRun {
    /// True only when the report is clean **and** no case was lost: a
    /// case that never ran proves nothing.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.report.is_clean() && self.lost_cases == 0
    }
}

impl Harness {
    /// [`Harness::run`] with per-case panic isolation, for chaos testing.
    ///
    /// `hook` is invoked *inside* the isolation boundary before each case
    /// attempt, with the oracle name and case index. Fault injectors
    /// (e.g. `rap-resilience` failpoints) live in that hook — the
    /// harness itself stays dependency-free. A panic out of the hook or
    /// the check costs one attempt; the case retries up to
    /// `policy.max_retries` times before being counted lost.
    ///
    /// With a hook that never panics, the returned report is **equal** to
    /// the one [`Harness::run`] produces from the same `base_seed` — the
    /// chaos suite asserts exactly that equality under injected faults.
    pub fn run_isolated<H>(
        &mut self,
        base_seed: u64,
        mut hook: H,
        policy: &IsolationPolicy,
    ) -> IsolatedRun
    where
        H: FnMut(&str, u64),
    {
        let mut oracles = Vec::with_capacity(self.entries.len());
        let mut recorded: Vec<Divergence> = Vec::new();
        let mut cases_run = 0u64;
        let mut shrink_panics = 0u64;
        let mut caught_panics = 0u64;
        let mut retried_cases = 0u64;
        let mut lost_cases = 0u64;

        for (oracle, budget) in &mut self.entries {
            let name = oracle.name().to_string();
            let mut divergences = 0u64;
            for index in 0..*budget {
                let seed = case_seed(base_seed, &name, index);
                let mut attempts = 0u32;
                let outcome = loop {
                    // `.err()` keeps the closure's Ok variant zero-sized;
                    // a `Divergence` is too large to ship through `Result`.
                    let attempt = catch_unwind(AssertUnwindSafe(|| {
                        hook(&name, index);
                        oracle.check(seed).err()
                    }));
                    match attempt {
                        Ok(result) => break Some(result),
                        Err(_) => {
                            caught_panics += 1;
                            if attempts == 0 {
                                retried_cases += 1;
                            }
                            attempts += 1;
                            if attempts > policy.max_retries {
                                break None;
                            }
                        }
                    }
                };
                match outcome {
                    None => {
                        lost_cases += 1;
                        // An abandoned case was counted as a retried one;
                        // keep the tallies disjoint.
                        retried_cases -= 1;
                    }
                    Some(None) => {}
                    Some(Some(divergence)) => {
                        divergences += 1;
                        if divergences <= MAX_RECORDED_PER_ORACLE {
                            match catch_unwind(AssertUnwindSafe(|| {
                                oracle.shrink(divergence.clone())
                            })) {
                                Ok(shrunk) => recorded.push(shrunk),
                                Err(_) => {
                                    shrink_panics += 1;
                                    recorded.push(divergence);
                                }
                            }
                        }
                    }
                }
            }
            cases_run += *budget;
            oracles.push(OracleRun {
                name,
                cases: *budget,
                divergences,
            });
        }

        IsolatedRun {
            report: ConformanceReport {
                base_seed,
                cases_run,
                oracle_pairs: self.entries.len(),
                oracles,
                divergences: recorded,
                shrink_panics,
            },
            caught_panics,
            retried_cases,
            lost_cases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::KernelOracle;
    use crate::mutation::NoDedupMutant;

    #[test]
    fn tiny_run_is_clean_and_counts_cases() {
        let mut h = Harness::new();
        h.push(
            Box::new(KernelOracle::new(
                "congestion:analyze-vs-naive",
                AnalyzePath,
            )),
            50,
        );
        h.push(Box::new(ScheduleOracle), 10);
        let report = h.run(2014);
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(report.cases_run, 60);
        assert_eq!(report.oracle_pairs, 2);
    }

    #[test]
    fn isolated_run_without_faults_equals_the_plain_run() {
        let build = || {
            let mut h = Harness::new();
            h.push(
                Box::new(KernelOracle::new(
                    "congestion:analyze-vs-naive",
                    AnalyzePath,
                )),
                40,
            );
            h.push(Box::new(ScheduleOracle), 10);
            h
        };
        let plain = build().run(2014);
        let isolated = build().run_isolated(2014, |_, _| {}, &IsolationPolicy::default());
        assert_eq!(isolated.report, plain);
        assert_eq!(isolated.caught_panics, 0);
        assert_eq!(isolated.retried_cases, 0);
        assert_eq!(isolated.lost_cases, 0);
        assert!(isolated.is_clean());
    }

    #[test]
    fn panicking_hook_is_retried_to_the_same_report() {
        let build = || {
            let mut h = Harness::new();
            h.push(
                Box::new(KernelOracle::new(
                    "congestion:analyze-vs-naive",
                    AnalyzePath,
                )),
                40,
            );
            h
        };
        let plain = build().run(9);
        // Panic on the first attempt of every 7th case; retries recover.
        let mut last_panicked = u64::MAX;
        let hook = move |_: &str, index: u64| {
            if index.is_multiple_of(7) && last_panicked != index {
                last_panicked = index;
                panic!("injected hook panic");
            }
        };
        let isolated = build().run_isolated(9, hook, &IsolationPolicy::default());
        assert_eq!(isolated.report, plain, "chaos must not change verdicts");
        assert_eq!(isolated.caught_panics, 6, "cases 0,7,14,21,28,35");
        assert_eq!(isolated.retried_cases, 6);
        assert_eq!(isolated.lost_cases, 0);
        assert!(isolated.is_clean());
    }

    #[test]
    fn unrecoverable_cases_are_lost_not_silently_clean() {
        let mut h = Harness::new();
        h.push(
            Box::new(KernelOracle::new(
                "congestion:analyze-vs-naive",
                AnalyzePath,
            )),
            10,
        );
        let hook = |_: &str, index: u64| {
            assert!(index != 3, "always fails");
        };
        let isolated = h.run_isolated(3, hook, &IsolationPolicy { max_retries: 2 });
        assert_eq!(isolated.lost_cases, 1);
        assert_eq!(isolated.caught_panics, 3, "initial try + 2 retries");
        assert_eq!(isolated.retried_cases, 0, "the only retried case was lost");
        assert!(!isolated.is_clean(), "a lost case proves nothing");
        assert!(
            isolated.report.is_clean(),
            "the 9 surviving cases were clean"
        );
    }

    #[test]
    fn mutant_is_caught_and_shrunk() {
        let mut h = Harness::new();
        h.push(
            Box::new(KernelOracle::new("mutant:no-dedup", NoDedupMutant)),
            300,
        );
        let report = h.run(7);
        assert!(!report.is_clean());
        assert!(report.oracles[0].divergences > 0);
        let d = &report.divergences[0];
        let m = d.minimal.as_ref().expect("kernel oracles always shrink");
        assert!(m.addresses.len() <= 2, "minimal repro: {m:?}");
    }
}
