//! Generic crash-safe append-only line journals.
//!
//! This is the storage core shared by the block checkpoint [`Ledger`]
//! (`rap-resilience`) and the adaptive-remapping epoch ledger
//! (`rap-adapt`). A journal is a JSON-lines file whose first line is a
//! header pinning a magic string, a format version, and a caller-supplied
//! [`fingerprint`] of every parameter that affects the record stream.
//!
//! Crash-safety model (identical for every journal built on this core):
//!
//! * the file is append-only; a crash can lose at most the suffix being
//!   written. On open, a torn or invalid trailing line is detected,
//!   reported ([`Journal::truncated_tail`]), and truncated away before
//!   appending resumes — a half-written record is re-derived, never
//!   half-trusted;
//! * a header whose magic, version, or fingerprint disagrees discards the
//!   file wholesale ([`Journal::discarded_stale`]) rather than silently
//!   poisoning the resume;
//! * appends take `&self` (an internal mutex serializes writers) and each
//!   line is flushed (optionally fsync'd) before `append` returns;
//! * the failpoint site `ledger.append` fires on every append and can
//!   tear the write mid-line — exactly what a crash leaves — so recovery
//!   paths are testable deterministically.
//!
//! [`Ledger`]: crate::checkpoint::Ledger

use crate::failpoint::{self, Fault};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Hash a sequence of textual parameter parts into a run fingerprint.
///
/// Uses the same FNV-1a + SplitMix64 construction as the seed domains, so
/// fingerprints are stable across processes and platforms. Include every
/// parameter that affects the record stream.
#[must_use]
pub fn fingerprint<I, S>(parts: I) -> u64
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut state = rap_stats::rng::hash_label("rap-ledger");
    for part in parts {
        state = rap_stats::rng::splitmix64(state ^ rap_stats::rng::hash_label(part.as_ref()));
    }
    state
}

#[derive(Debug, Serialize, Deserialize)]
struct Header {
    magic: String,
    version: u32,
    fingerprint: u64,
}

/// How durable each append is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fsync` after every entry — a crash loses nothing acknowledged.
    /// This is what the bench binaries use.
    EveryEntry,
    /// Flush to the OS after every entry but skip the `fsync`; a power
    /// loss may drop recent entries (they simply re-run). Right for
    /// tests and high-block-rate sweeps.
    #[default]
    Flush,
}

/// Identity of a journal format: what distinguishes *this run's* file
/// from a foreign or stale one.
#[derive(Debug, Clone, Copy)]
pub struct JournalSpec<'a> {
    /// Magic string on the header line (e.g. `"rap-ledger"`).
    pub magic: &'a str,
    /// On-disk format version.
    pub version: u32,
    /// Run fingerprint (see [`fingerprint`]).
    pub fingerprint: u64,
    /// Durability of each append.
    pub sync: SyncPolicy,
}

enum Backing {
    File {
        writer: BufWriter<File>,
        sync: SyncPolicy,
        /// File length after the last fully-successful append. A failed
        /// append (torn write, ENOSPC) can leave bytes past this point;
        /// the next append truncates back to it first, so one fault
        /// never corrupts the line that follows it.
        good_len: u64,
        /// True when bytes past `good_len` may exist on disk.
        dirty: bool,
    },
    Memory,
}

/// An open append-only line journal (see the module docs).
pub struct Journal {
    path: Option<PathBuf>,
    backing: Mutex<Backing>,
    resumed: Vec<String>,
    discarded_stale: bool,
    truncated_tail: bool,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("resumed", &self.resumed.len())
            .field("discarded_stale", &self.discarded_stale)
            .field("truncated_tail", &self.truncated_tail)
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Open (or create) the journal at `path` for the run identified by
    /// `spec`. Existing lines are validated in order with `valid`; the
    /// first incomplete or invalid line marks the start of the untrusted
    /// tail, which is truncated away before appending resumes.
    ///
    /// # Errors
    /// Propagates I/O errors opening, reading, or preparing the file.
    pub fn open(
        path: &Path,
        spec: &JournalSpec<'_>,
        valid: impl Fn(&str) -> bool,
    ) -> io::Result<Self> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| ctx(&e, "creating journal directory", parent))?;
        }

        let mut resumed = Vec::new();
        let mut discarded_stale = false;
        let mut truncated_tail = false;
        // Byte offset up to which the existing file is valid for this run.
        let mut keep_bytes: u64 = 0;
        let mut needs_header = true;

        if path.exists() {
            let mut text = String::new();
            File::open(path)
                .and_then(|mut f| f.read_to_string(&mut text))
                .map_err(|e| ctx(&e, "reading journal", path))?;
            let mut offset: u64 = 0;
            let mut first = true;
            for line in text.split_inclusive('\n') {
                let complete = line.ends_with('\n');
                let body = line.trim_end_matches('\n');
                if first {
                    match serde_json::from_str::<Header>(body) {
                        Ok(h)
                            if complete
                                && h.magic == spec.magic
                                && h.version == spec.version
                                && h.fingerprint == spec.fingerprint =>
                        {
                            needs_header = false;
                            offset += line.len() as u64;
                            keep_bytes = offset;
                        }
                        _ => {
                            // Stale run (different parameters), foreign
                            // file, or torn header: start fresh.
                            discarded_stale = true;
                            break;
                        }
                    }
                    first = false;
                    continue;
                }
                if complete && valid(body) {
                    resumed.push(body.to_string());
                    offset += line.len() as u64;
                    keep_bytes = offset;
                } else {
                    // Torn or corrupt line: everything from here on is
                    // untrusted. Truncate and re-derive those records.
                    truncated_tail = true;
                    break;
                }
            }
        }

        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)
            .map_err(|e| ctx(&e, "opening journal", path))?;
        file.set_len(keep_bytes)
            .map_err(|e| ctx(&e, "truncating journal", path))?;
        let mut writer = BufWriter::new(file);
        writer
            .seek(SeekFrom::Start(keep_bytes))
            .map_err(|e| ctx(&e, "seeking journal", path))?;

        let journal = Self {
            path: Some(path.to_path_buf()),
            backing: Mutex::new(Backing::File {
                writer,
                sync: spec.sync,
                good_len: keep_bytes,
                dirty: false,
            }),
            resumed,
            discarded_stale,
            truncated_tail,
        };
        if needs_header {
            let header = serde_json::to_string(&Header {
                magic: spec.magic.to_string(),
                version: spec.version,
                fingerprint: spec.fingerprint,
            })
            .map_err(|e| json_err(&e))?;
            journal
                .append(&header)
                .map_err(|e| ctx(&e, "writing journal header", path))?;
        }
        Ok(journal)
    }

    /// A purely in-memory journal (tests, demos): appends are accepted
    /// but nothing touches the filesystem and nothing resumes.
    #[must_use]
    pub fn in_memory() -> Self {
        Self {
            path: None,
            backing: Mutex::new(Backing::Memory),
            resumed: Vec::new(),
            discarded_stale: false,
            truncated_tail: false,
        }
    }

    /// True when appends reach a file; an in-memory journal accepts and
    /// drops them.
    #[must_use]
    pub(crate) fn persists(&self) -> bool {
        self.path.is_some()
    }

    /// The validated record lines loaded from a previous run, in append
    /// order (header excluded).
    #[must_use]
    pub fn resumed_lines(&self) -> &[String] {
        &self.resumed
    }

    /// True when an existing file was discarded because its header
    /// (magic, version, or fingerprint) did not match this run.
    #[must_use]
    pub fn discarded_stale(&self) -> bool {
        self.discarded_stale
    }

    /// True when a torn trailing line was found and truncated at open.
    #[must_use]
    pub fn truncated_tail(&self) -> bool {
        self.truncated_tail
    }

    /// Durably append one record line. Safe to call from parallel
    /// workers; an internal mutex serializes writers.
    ///
    /// # Errors
    /// Propagates I/O errors (including injected ones — failpoint site
    /// `ledger.append`). A `PartialWrite` fault persists a torn prefix —
    /// exactly what a crash mid-append leaves — then fails, so open-time
    /// truncation is exercised deterministically.
    pub fn append(&self, line: &str) -> io::Result<()> {
        let mut backing = self
            .backing
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match &mut *backing {
            Backing::Memory => Ok(()),
            Backing::File {
                writer,
                sync,
                good_len,
                dirty,
            } => {
                if *dirty {
                    // A previous append failed partway; discard its torn
                    // suffix before writing anything new.
                    writer.flush()?;
                    writer.get_ref().set_len(*good_len)?;
                    writer.seek(SeekFrom::Start(*good_len))?;
                    *dirty = false;
                }
                let fired = failpoint::fire("ledger.append").inspect_err(|_| *dirty = true)?;
                if let Some(Fault::PartialWrite) = fired {
                    *dirty = true;
                    let cut = line.len() / 2;
                    writer.write_all(&line.as_bytes()[..cut])?;
                    writer.flush()?;
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        format!("failpoint 'ledger.append': torn after {cut} bytes"),
                    ));
                }
                let result = writer
                    .write_all(line.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush());
                if let Err(e) = result {
                    *dirty = true;
                    return Err(e);
                }
                if matches!(sync, SyncPolicy::EveryEntry) {
                    writer.get_ref().sync_all()?;
                }
                *good_len += line.len() as u64 + 1;
                Ok(())
            }
        }
    }

    /// Delete the backing file — call after the journal's contents have
    /// been superseded by a durably-written final artifact.
    ///
    /// # Errors
    /// Propagates the removal error (missing file is fine).
    pub fn remove_file(self) -> io::Result<()> {
        if let Some(path) = &self.path {
            drop(self.backing); // close the handle first
            match std::fs::remove_file(path) {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(ctx(&e, "removing journal", path)),
            }
        } else {
            Ok(())
        }
    }
}

fn ctx(err: &io::Error, what: &str, path: &Path) -> io::Error {
    io::Error::new(err.kind(), format!("{what} {}: {err}", path.display()))
}

pub(crate) fn json_err(err: &serde_json::Error) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("encoding journal line: {err}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{locked, scratch_dir};

    const SPEC_FP: u64 = 42;

    fn spec() -> JournalSpec<'static> {
        JournalSpec {
            magic: "rap-test-journal",
            version: 1,
            fingerprint: SPEC_FP,
            sync: SyncPolicy::Flush,
        }
    }

    fn digits_only(line: &str) -> bool {
        !line.is_empty() && line.bytes().all(|b| b.is_ascii_digit())
    }

    #[test]
    fn round_trip_preserves_line_order() {
        let _l = locked();
        let path = scratch_dir("journal-rt").join("j.ledger");
        {
            let j = Journal::open(&path, &spec(), digits_only).unwrap();
            j.append("1").unwrap();
            j.append("22").unwrap();
            j.append("333").unwrap();
        }
        let j = Journal::open(&path, &spec(), digits_only).unwrap();
        assert_eq!(j.resumed_lines(), ["1", "22", "333"]);
        assert!(!j.discarded_stale());
        assert!(!j.truncated_tail());
    }

    #[test]
    fn invalid_line_truncates_everything_after_it() {
        let _l = locked();
        let path = scratch_dir("journal-invalid").join("j.ledger");
        {
            let j = Journal::open(&path, &spec(), digits_only).unwrap();
            j.append("1").unwrap();
            j.append("not-digits").unwrap();
            j.append("3").unwrap();
        }
        let j = Journal::open(&path, &spec(), digits_only).unwrap();
        assert!(j.truncated_tail());
        assert_eq!(j.resumed_lines(), ["1"], "valid prefix only");
        // The file itself was truncated: a further reopen is clean.
        j.append("2").unwrap();
        drop(j);
        let j = Journal::open(&path, &spec(), digits_only).unwrap();
        assert!(!j.truncated_tail());
        assert_eq!(j.resumed_lines(), ["1", "2"]);
    }

    #[test]
    fn wrong_magic_discards_wholesale() {
        let _l = locked();
        let path = scratch_dir("journal-magic").join("j.ledger");
        {
            let j = Journal::open(&path, &spec(), digits_only).unwrap();
            j.append("1").unwrap();
        }
        let other = JournalSpec {
            magic: "rap-other",
            ..spec()
        };
        let j = Journal::open(&path, &other, digits_only).unwrap();
        assert!(j.discarded_stale());
        assert!(j.resumed_lines().is_empty());
    }

    #[test]
    fn append_after_torn_fault_self_repairs() {
        use crate::failpoint::{install, FailPlan, Fault, HitSchedule};
        let _l = locked();
        let path = scratch_dir("journal-repair").join("j.ledger");
        let j = Journal::open(&path, &spec(), digits_only).unwrap();
        j.append("111").unwrap();
        {
            let _g = install(FailPlan::new(0).rule(
                "ledger.append",
                Fault::PartialWrite,
                HitSchedule::At(vec![0]),
            ));
            j.append("222222").unwrap_err();
        }
        // The torn prefix of "222222" must not merge into the next line.
        j.append("333").unwrap();
        drop(j);
        let j = Journal::open(&path, &spec(), digits_only).unwrap();
        assert!(!j.truncated_tail(), "torn suffix was repaired in-process");
        assert_eq!(j.resumed_lines(), ["111", "333"]);
    }

    #[test]
    fn in_memory_accepts_everything_resumes_nothing() {
        let j = Journal::in_memory();
        j.append("anything").unwrap();
        assert!(j.resumed_lines().is_empty());
        j.remove_file().unwrap();
    }
}
