//! Cooperative cancellation for the Monte-Carlo engine.
//!
//! A long estimate run on behalf of an online client (`rap-serve`) must
//! be abandonable mid-flight: the request's deadline passes, the client
//! disconnects, or the server starts draining. Preemption is off the
//! table (the engine crates are plain safe Rust), so cancellation is
//! **cooperative**: the caller hands the engine a [`CancelToken`], and
//! the block loops poll it between trials — the unit of work between
//! polls is one trial (`w` warps), so a cancelled request stops within
//! microseconds, not blocks.
//!
//! Determinism is preserved on the surviving prefix: a cancelled run
//! merges exactly the blocks that completed — the first
//! `completed_blocks` of the run — in block-index order, so
//! any non-cancelled run remains bit-identical to the plain engine and
//! a cancelled one is an honestly-labelled partial result
//! ([`PartialStats::cancelled`]), never a silently truncated estimate.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shareable cancellation signal: an explicit flag, an optional
/// deadline, or both. Cloning is cheap and all clones observe the same
/// flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never fires on its own (it can still be
    /// [`cancel`](Self::cancel)led explicitly).
    #[must_use]
    pub fn never() -> Self {
        Self::default()
    }

    /// A token that fires once `deadline` passes.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// Fire the token explicitly; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has fired (explicitly or by deadline).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// The outcome of a cancellable estimate: the merged statistics of every
/// block that completed, plus an honest account of what did not.
#[derive(Debug, Clone)]
pub struct PartialStats {
    /// Completed blocks merged in block-index order. When
    /// `cancelled == false` this is bit-identical to the plain engine's
    /// result for the same inputs.
    pub stats: rap_stats::OnlineStats,
    /// Blocks that ran to completion.
    pub completed_blocks: u64,
    /// Blocks the full run would have executed.
    pub total_blocks: u64,
    /// True when the token fired before every block completed.
    pub cancelled: bool,
}

impl PartialStats {
    /// True when the estimate is built from fewer blocks than requested.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.cancelled || self.completed_blocks < self.total_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn never_token_is_quiet_until_cancelled() {
        let t = CancelToken::never();
        assert!(!t.is_cancelled());
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled(), "clones share the flag");
    }

    #[test]
    fn deadline_token_fires_by_itself() {
        let now = Instant::now();
        let past = now.checked_sub(Duration::from_millis(1)).unwrap_or(now);
        let t = CancelToken::with_deadline(past);
        assert!(t.is_cancelled(), "past deadline fires immediately");
        let future = CancelToken::with_deadline(Instant::now() + Duration::from_hours(1));
        assert!(!future.is_cancelled());
    }

    #[test]
    fn partial_stats_degradation_accounting() {
        let full = PartialStats {
            stats: rap_stats::OnlineStats::new(),
            completed_blocks: 4,
            total_blocks: 4,
            cancelled: false,
        };
        assert!(!full.degraded());
        let cut = PartialStats {
            completed_blocks: 2,
            cancelled: true,
            ..full.clone()
        };
        assert!(cut.degraded());
    }
}
