//! Checkpoint ledgers: append-only logs of completed Monte-Carlo blocks.
//!
//! The engine in `rap-access` executes trials in fixed 32-trial blocks and
//! merges the per-block accumulators in block-index order — so the full
//! estimate is a pure function of *which blocks completed with what
//! statistics*. A [`Ledger`] persists exactly that: one JSON line per
//! completed `(cell, block)` pair carrying the accumulator as IEEE-754
//! **bit patterns** ([`rap_stats::RawOnlineStats`]), so a resumed run
//! merges to the byte-identical result an uninterrupted run produces.
//!
//! The crash-safety machinery — header fingerprint pinning, torn-tail
//! truncation, serialized durable appends, and the `ledger.append`
//! failpoint — lives in the generic [`Journal`]
//! core, which the adaptive-remapping epoch ledger (`rap-adapt`) shares.
//! This module is the block-accumulator record type layered on top.

use crate::journal::{json_err, Journal, JournalSpec};
use rap_stats::{OnlineStats, RawOnlineStats};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

pub use crate::journal::{fingerprint, SyncPolicy};

/// Current on-disk format version.
const LEDGER_VERSION: u32 = 1;
/// Magic string identifying ledger files.
const LEDGER_MAGIC: &str = "rap-ledger";

/// One completed block: cell key, block index, and the accumulator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// Cell key (e.g. `"Stride/RAS/w=32"`).
    pub cell: String,
    /// Block index within the cell's trial range.
    pub block: u64,
    /// The block's accumulator, bit-exact.
    pub stats: RawOnlineStats,
}

/// An open checkpoint ledger (see the module docs).
#[derive(Debug)]
pub struct Ledger {
    journal: Journal,
    completed: HashMap<(String, u64), RawOnlineStats>,
    resumed_entries: usize,
    recorded: AtomicU64,
}

impl Ledger {
    /// Open (or create) the ledger at `path` for the run identified by
    /// `fingerprint`.
    ///
    /// Existing entries with a matching fingerprint are loaded for
    /// resume; a mismatched or corrupt header discards the file. A torn
    /// trailing line is truncated away (see [`Self::truncated_tail`]).
    ///
    /// # Errors
    /// Propagates I/O errors opening, reading, or preparing the file.
    pub fn open(path: &Path, fingerprint: u64, sync: SyncPolicy) -> io::Result<Self> {
        let spec = JournalSpec {
            magic: LEDGER_MAGIC,
            version: LEDGER_VERSION,
            fingerprint,
            sync,
        };
        let journal = Journal::open(path, &spec, |line| {
            serde_json::from_str::<LedgerEntry>(line).is_ok()
        })?;
        let mut completed = HashMap::new();
        let mut resumed_entries = 0;
        for line in journal.resumed_lines() {
            // The open-time validator accepted the line, so this parse
            // cannot fail; skip defensively rather than unwrap.
            if let Ok(entry) = serde_json::from_str::<LedgerEntry>(line) {
                completed.insert((entry.cell, entry.block), entry.stats);
                resumed_entries += 1;
            }
        }
        Ok(Self {
            journal,
            completed,
            resumed_entries,
            recorded: AtomicU64::new(0),
        })
    }

    /// A purely in-memory ledger (tests, `rap chaos` demos): records are
    /// kept but nothing touches the filesystem.
    #[must_use]
    pub fn in_memory() -> Self {
        Self {
            journal: Journal::in_memory(),
            completed: HashMap::new(),
            resumed_entries: 0,
            recorded: AtomicU64::new(0),
        }
    }

    /// The stats recorded for `(cell, block)` by a previous run, if any.
    #[must_use]
    pub fn completed(&self, cell: &str, block: u64) -> Option<OnlineStats> {
        self.completed
            .get(&(cell.to_string(), block))
            .map(OnlineStats::from_raw)
    }

    /// Number of entries loaded from a previous run at open time.
    #[must_use]
    pub fn resumed_entries(&self) -> usize {
        self.resumed_entries
    }

    /// Blocks recorded through this handle so far (successful appends):
    /// a live progress count for whoever shares the ledger.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::SeqCst)
    }

    /// True when an existing file was discarded because its fingerprint
    /// (or header) did not match this run.
    #[must_use]
    pub fn discarded_stale(&self) -> bool {
        self.journal.discarded_stale()
    }

    /// True when a torn trailing line was found and truncated at open.
    #[must_use]
    pub fn truncated_tail(&self) -> bool {
        self.journal.truncated_tail()
    }

    /// Durably record a completed block. Safe to call from parallel
    /// workers; entries are self-describing so arrival order is free.
    ///
    /// # Errors
    /// Propagates I/O errors (including injected ones — failpoint site
    /// `ledger.append`). A failed append loses only durability for that
    /// block, not the in-memory result; callers degrade gracefully.
    pub fn record(&self, cell: &str, block: u64, stats: &OnlineStats) -> io::Result<()> {
        // An in-memory journal drops every line: build none for it.
        if self.journal.persists() {
            let line = serde_json::to_string(&LedgerEntry {
                cell: cell.to_string(),
                block,
                stats: stats.to_raw(),
            })
            .map_err(|e| json_err(&e))?;
            self.journal.append(&line)?;
        }
        self.recorded.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Delete the backing file — call after the final result has been
    /// durably written, making the checkpoint obsolete.
    ///
    /// # Errors
    /// Propagates the removal error (missing file is fine).
    pub fn remove_file(self) -> io::Result<()> {
        self.journal.remove_file()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::{install, FailPlan, Fault, HitSchedule};
    use crate::test_support::{locked, scratch_dir};

    fn stats_of(xs: &[f64]) -> OnlineStats {
        xs.iter().copied().collect()
    }

    #[test]
    fn fingerprint_depends_on_every_part_and_order() {
        let a = fingerprint(["t2", "w=16,32", "trials=2000", "seed=2014"]);
        assert_eq!(
            a,
            fingerprint(["t2", "w=16,32", "trials=2000", "seed=2014"])
        );
        assert_ne!(
            a,
            fingerprint(["t2", "w=16,32", "trials=2000", "seed=2015"])
        );
        assert_ne!(
            a,
            fingerprint(["t2", "w=16,32", "seed=2014", "trials=2000"])
        );
        assert_ne!(
            a,
            fingerprint(["t4", "w=16,32", "trials=2000", "seed=2014"])
        );
    }

    #[test]
    fn round_trip_resumes_bit_exact() {
        let _l = locked();
        let path = scratch_dir("ledger-rt").join("run.ledger");
        let fp = fingerprint(["rt"]);
        let a = stats_of(&[1.0, 2.5, 0.1]);
        let b = stats_of(&[7.0]);
        {
            let ledger = Ledger::open(&path, fp, SyncPolicy::Flush).unwrap();
            ledger.record("cellA", 0, &a).unwrap();
            ledger.record("cellA", 3, &b).unwrap();
            ledger.record("cellB", 1, &a).unwrap();
            assert_eq!(ledger.recorded(), 3);
        }
        let ledger = Ledger::open(&path, fp, SyncPolicy::Flush).unwrap();
        assert_eq!(ledger.resumed_entries(), 3);
        assert_eq!(
            ledger.recorded(),
            0,
            "resumed entries are not recorded anew"
        );
        assert!(!ledger.discarded_stale());
        assert!(!ledger.truncated_tail());
        assert_eq!(ledger.completed("cellA", 0), Some(a));
        assert_eq!(ledger.completed("cellA", 3), Some(b));
        assert_eq!(ledger.completed("cellB", 1), Some(a));
        assert_eq!(ledger.completed("cellA", 1), None);
        assert_eq!(ledger.completed("cellC", 0), None);
    }

    #[test]
    fn mismatched_fingerprint_discards_wholesale() {
        let _l = locked();
        let path = scratch_dir("ledger-stale").join("run.ledger");
        {
            let ledger = Ledger::open(&path, fingerprint(["old"]), SyncPolicy::Flush).unwrap();
            ledger.record("c", 0, &stats_of(&[1.0])).unwrap();
        }
        let ledger = Ledger::open(&path, fingerprint(["new"]), SyncPolicy::Flush).unwrap();
        assert!(ledger.discarded_stale());
        assert_eq!(ledger.resumed_entries(), 0);
        assert_eq!(ledger.completed("c", 0), None);
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_kept() {
        let _l = locked();
        let path = scratch_dir("ledger-torn").join("run.ledger");
        let fp = fingerprint(["torn"]);
        {
            let ledger = Ledger::open(&path, fp, SyncPolicy::Flush).unwrap();
            ledger.record("c", 0, &stats_of(&[1.0])).unwrap();
            ledger.record("c", 1, &stats_of(&[2.0])).unwrap();
        }
        // Simulate a crash mid-append: chop the file mid-way through the
        // last line.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let ledger = Ledger::open(&path, fp, SyncPolicy::Flush).unwrap();
        assert!(ledger.truncated_tail());
        assert_eq!(
            ledger.resumed_entries(),
            1,
            "only the intact entry survives"
        );
        assert_eq!(ledger.completed("c", 0), Some(stats_of(&[1.0])));
        assert_eq!(ledger.completed("c", 1), None, "torn entry re-runs");
        // Appending after truncation produces a cleanly parseable file.
        ledger.record("c", 1, &stats_of(&[2.0])).unwrap();
        drop(ledger);
        let reopened = Ledger::open(&path, fp, SyncPolicy::Flush).unwrap();
        assert!(!reopened.truncated_tail());
        assert_eq!(reopened.resumed_entries(), 2);
    }

    #[test]
    fn torn_append_fault_is_recoverable() {
        let _l = locked();
        let path = scratch_dir("ledger-fault").join("run.ledger");
        let fp = fingerprint(["fault"]);
        {
            let ledger = Ledger::open(&path, fp, SyncPolicy::EveryEntry).unwrap();
            ledger.record("c", 0, &stats_of(&[1.0])).unwrap();
            let _g = install(FailPlan::new(0).rule(
                "ledger.append",
                Fault::PartialWrite,
                HitSchedule::At(vec![0]),
            ));
            let err = ledger.record("c", 1, &stats_of(&[2.0])).unwrap_err();
            assert!(err.to_string().contains("torn"), "{err}");
        }
        // The torn half-line is discarded on reopen; block 1 simply
        // re-executes. Zero silent data loss.
        let ledger = Ledger::open(&path, fp, SyncPolicy::Flush).unwrap();
        assert!(ledger.truncated_tail());
        assert_eq!(ledger.completed("c", 0), Some(stats_of(&[1.0])));
        assert_eq!(ledger.completed("c", 1), None);
    }

    #[test]
    fn enospc_append_surfaces_and_ledger_stays_usable() {
        let _l = locked();
        let path = scratch_dir("ledger-enospc").join("run.ledger");
        let fp = fingerprint(["enospc"]);
        let ledger = Ledger::open(&path, fp, SyncPolicy::Flush).unwrap();
        let _g = install(FailPlan::new(0).rule(
            "ledger.append",
            Fault::Enospc,
            HitSchedule::At(vec![0]),
        ));
        let err = ledger.record("c", 0, &stats_of(&[1.0])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(ledger.recorded(), 0, "a failed append is not counted");
        // Space freed: the next append lands.
        ledger.record("c", 0, &stats_of(&[1.0])).unwrap();
        assert_eq!(ledger.recorded(), 1);
        drop(ledger);
        let reopened = Ledger::open(&path, fp, SyncPolicy::Flush).unwrap();
        assert_eq!(reopened.resumed_entries(), 1);
    }

    #[test]
    fn remove_file_cleans_up() {
        let _l = locked();
        let path = scratch_dir("ledger-rm").join("run.ledger");
        let fp = fingerprint(["rm"]);
        let ledger = Ledger::open(&path, fp, SyncPolicy::Flush).unwrap();
        ledger.record("c", 0, &stats_of(&[1.0])).unwrap();
        assert!(path.exists());
        ledger.remove_file().unwrap();
        assert!(!path.exists());
        // In-memory ledgers remove trivially.
        Ledger::in_memory().remove_file().unwrap();
    }

    #[test]
    fn in_memory_records_nothing_but_accepts_everything() {
        let ledger = Ledger::in_memory();
        ledger.record("c", 0, &stats_of(&[1.0])).unwrap();
        assert_eq!(
            ledger.completed("c", 0),
            None,
            "memory ledger is write-only"
        );
        assert_eq!(ledger.recorded(), 1, "but it counts what it accepted");
    }

    #[test]
    fn empty_accumulator_round_trips() {
        let _l = locked();
        let path = scratch_dir("ledger-empty").join("run.ledger");
        let fp = fingerprint(["empty"]);
        {
            let ledger = Ledger::open(&path, fp, SyncPolicy::Flush).unwrap();
            ledger.record("c", 0, &OnlineStats::new()).unwrap();
        }
        let ledger = Ledger::open(&path, fp, SyncPolicy::Flush).unwrap();
        // The ±inf min/max sentinels survive the bit-pattern encoding.
        assert_eq!(ledger.completed("c", 0), Some(OnlineStats::new()));
    }
}
