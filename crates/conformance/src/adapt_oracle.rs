//! Adaptive-vs-static oracle: the self-healing remapping layer must be
//! **invisible** in the data plane.
//!
//! Two claims, both bit-exact:
//!
//! * **No trigger** — a frozen adaptive controller serving
//!   `scheme:"adaptive"` answers every `pattern` request byte-identical
//!   to the plain static path on its committed scheme. Adaptivity that
//!   perturbs answers while idle is a correctness bug, not a tuning
//!   knob.
//! * **Forced swap** — after a forced epoch swap commits, every
//!   subsequent adaptive answer is byte-identical to a *fresh* run of
//!   the static path on the new scheme. A swap is a clean cut-over:
//!   no torn hybrid of old and new layouts, no residue of the old
//!   epoch in any payload.
//!
//! The oracle drives [`rap_serve::handler::execute`] directly (the same
//! entry the TCP workers use) so the claim covers the real dispatch
//! code, not a reimplementation.

use crate::oracle::{Divergence, Oracle};
use crate::pattern::splitmix64;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rap_access::{CancelToken, MatrixPattern};
use rap_adapt::{AdaptConfig, AdaptiveController};
use rap_serve::handler::execute;
use rap_serve::{Command, PatternScheme};

/// Differential oracle pitting `scheme:"adaptive"` against the static
/// scheme paths, before and after a forced epoch swap.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdaptOracle;

/// Named static candidates every controller carries at a power-of-two
/// width (xor requires the power of two; the ladder below provides it).
const CANDIDATES: &[&str] = &["raw", "ras", "rap", "xor", "padded"];

const WIDTHS: &[usize] = &[4, 8, 16];

/// One decoded case: a controller configuration, a request sequence,
/// and a forced swap target distinct from the initial scheme.
struct Case {
    width: usize,
    initial: &'static str,
    target: &'static str,
    requests: Vec<Command>,
}

impl Case {
    fn describe(&self) -> String {
        format!(
            "w={}, {} -> {}, {} request(s)",
            self.width,
            self.initial,
            self.target,
            self.requests.len()
        )
    }
}

fn decode(seed: u64) -> Case {
    let mut rng = SmallRng::seed_from_u64(splitmix64(seed));
    let width = WIDTHS[rng.gen_range(0..WIDTHS.len())];
    let initial = CANDIDATES[rng.gen_range(0..CANDIDATES.len())];
    let target = loop {
        let t = CANDIDATES[rng.gen_range(0..CANDIDATES.len())];
        if t != initial {
            break t;
        }
    };
    let patterns = MatrixPattern::table2();
    let n = rng.gen_range(2..=5usize);
    let requests = (0..n)
        .map(|_| Command::Pattern {
            pattern: patterns[rng.gen_range(0..patterns.len())],
            scheme: PatternScheme::Adaptive,
            width,
            trials: rng.gen_range(1..=24u64),
            seed: rng.gen(),
        })
        .collect();
    Case {
        width,
        initial,
        target,
        requests,
    }
}

/// The same request re-targeted at a static candidate, by name.
fn as_static(cmd: &Command, scheme: &str) -> Command {
    match cmd {
        Command::Pattern {
            pattern,
            width,
            trials,
            seed,
            ..
        } => Command::Pattern {
            pattern: *pattern,
            scheme: PatternScheme::Static(scheme.parse().expect("a static candidate name")),
            width: *width,
            trials: *trials,
            seed: *seed,
        },
        other => other.clone(),
    }
}

fn controller(width: usize, initial: &str) -> AdaptiveController {
    AdaptiveController::new(AdaptConfig {
        width,
        initial: initial.to_string(),
        // Frozen: the oracle triggers swaps itself; background
        // proposals would make the static reference a moving target.
        start_frozen: true,
        ..AdaptConfig::default()
    })
    .expect("static candidate sets build at every ladder width")
}

impl Oracle for AdaptOracle {
    fn name(&self) -> &'static str {
        "adapt:stable-vs-static"
    }

    fn check(&mut self, seed: u64) -> Result<(), Divergence> {
        let case = decode(seed);
        let described = case.describe();
        let never = CancelToken::never();
        let ctl = controller(case.width, case.initial);

        // Claim 1: no trigger, no trace — adaptive == static(initial),
        // request by request, while observations stream through the
        // monitor.
        for (i, cmd) in case.requests.iter().enumerate() {
            let adaptive = execute(cmd, &never, Some(&ctl));
            let static_ref = execute(&as_static(cmd, case.initial), &never, None);
            if adaptive != static_ref {
                return Err(Divergence::new(
                    self.name(),
                    seed,
                    format!("{described}, stable request #{i}"),
                    format!("{static_ref:?}"),
                    format!("{adaptive:?}"),
                ));
            }
        }

        // Claim 2: a committed swap is a clean cut-over — adaptive ==
        // static(target) on a fresh controller's worth of requests.
        ctl.force(case.target, 0)
            .expect("forcing a known static candidate with no faults installed");
        let active = ctl.active();
        if active.name != case.target || active.epoch != 1 {
            return Err(Divergence::new(
                self.name(),
                seed,
                described,
                format!("committed '{}' at epoch 1", case.target),
                format!("'{}' at epoch {}", active.name, active.epoch),
            ));
        }
        for (i, cmd) in case.requests.iter().enumerate() {
            let adaptive = execute(cmd, &never, Some(&ctl));
            let static_ref = execute(&as_static(cmd, case.target), &never, None);
            if adaptive != static_ref {
                return Err(Divergence::new(
                    self.name(),
                    seed,
                    format!("{described}, post-swap request #{i}"),
                    format!("{static_ref:?}"),
                    format!("{adaptive:?}"),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dozens_of_seeds_run_clean() {
        let mut oracle = AdaptOracle;
        for seed in 0..48u64 {
            oracle
                .check(seed)
                .expect("adaptive answers are bit-identical to the static paths");
        }
    }

    #[test]
    fn decode_is_deterministic_and_swaps_are_real() {
        for seed in 0..64u64 {
            let a = decode(seed);
            let b = decode(seed);
            assert_eq!(a.describe(), b.describe());
            assert_ne!(a.initial, a.target, "a swap must change the scheme");
            assert!(!a.requests.is_empty());
        }
    }

    #[test]
    fn a_perturbed_payload_is_caught() {
        // Sanity-check the comparison actually bites: running the
        // adaptive path against the *wrong* static reference diverges.
        let never = CancelToken::never();
        let ctl = controller(8, "rap");
        let cmd = Command::Pattern {
            pattern: MatrixPattern::Stride,
            scheme: PatternScheme::Adaptive,
            width: 8,
            trials: 8,
            seed: 7,
        };
        let adaptive = execute(&cmd, &never, Some(&ctl));
        let wrong = execute(&as_static(&cmd, "raw"), &never, None);
        assert_ne!(adaptive, wrong, "stride under rap must beat raw");
    }
}
