//! The epoch state machine: `Stable → Proposed → Migrating → Committed |
//! RolledBack`.
//!
//! Every transition is **prepared** (validated, a durable record built)
//! before it is **applied** (in-memory state mutated). The controller
//! persists the record between the two steps, so a crash at any point
//! leaves the ledger and memory in one of exactly two relationships:
//!
//! * record persisted, apply not yet run — replay applies it;
//! * record not persisted, apply not run — the transition never
//!   happened.
//!
//! There is no state where memory moved and the ledger did not. Replay
//! is therefore a pure fold of [`EpochMachine::apply`] over the record
//! stream, and a run interrupted mid-epoch (trailing `Proposed` or
//! `Migrating` without resolution) deterministically **rolls back** to
//! the last committed layout — the active layout is only ever replaced
//! at `Committed`, so requests served during a migration always come
//! from the old layout, never a torn hybrid.

use crate::candidates::{Candidate, CandidateKind};
use rap_core::Scheme;
use serde::{Deserialize, Serialize};

/// Epoch lifecycle phases. `Stable`, `Proposed`, and `Migrating` are
/// machine states; `Committed` and `RolledBack` are transition records
/// that resolve the machine back to `Stable`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// No swap in flight.
    Stable,
    /// A target candidate has been selected and durably recorded.
    Proposed,
    /// The swap is in progress; requests still served from the old layout.
    Migrating,
    /// The swap completed; the target is now the active layout.
    Committed,
    /// The swap was abandoned; the active layout is unchanged.
    RolledBack,
}

impl Phase {
    /// Lower-case display name (matches the serialized form).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Stable => "stable",
            Phase::Proposed => "proposed",
            Phase::Migrating => "migrating",
            Phase::Committed => "committed",
            Phase::RolledBack => "rolledback",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One durable ledger record: a single epoch transition, self-contained
/// for replay (the target's concrete table rides along when the target
/// is synthesized, so resume never depends on re-running the search).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Monotonic record sequence number (0-based).
    pub seq: u64,
    /// Committed epoch count *after* this record applies.
    pub epoch: u64,
    /// The transition.
    pub phase: Phase,
    /// Active candidate name when the record was written.
    pub from: String,
    /// Target candidate name (for `RolledBack`: the abandoned target).
    pub to: String,
    /// Tile width, pinned so a record can rebuild its target.
    pub width: u32,
    /// The target's shift table when it is a synthesized layout.
    pub layout: Option<Vec<u32>>,
}

/// Why a transition was refused. Invalid requests are errors, never
/// panics — the machine's state is unchanged by a refused transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpochError {
    /// The requested phase is not legal from the current phase.
    InvalidTransition {
        /// Current machine phase.
        from: Phase,
        /// Requested record phase.
        to: Phase,
    },
    /// `Proposed` needs a target candidate.
    MissingTarget,
    /// Proposing the already-active candidate is a no-op, refused.
    TargetIsActive(String),
    /// A record's seq does not extend the machine's history.
    SeqMismatch {
        /// Expected next sequence number.
        expected: u64,
        /// The record's sequence number.
        got: u64,
    },
    /// A record's width disagrees with the machine's.
    WidthMismatch {
        /// Machine width.
        expected: u32,
        /// Record width.
        got: u32,
    },
    /// A replayed record names a target that cannot be rebuilt.
    UnknownTarget(String),
}

impl std::fmt::Display for EpochError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EpochError::InvalidTransition { from, to } => {
                write!(f, "invalid transition {from} -> {to}")
            }
            EpochError::MissingTarget => write!(f, "proposed transition needs a target"),
            EpochError::TargetIsActive(name) => {
                write!(f, "target '{name}' is already active")
            }
            EpochError::SeqMismatch { expected, got } => {
                write!(f, "record seq {got}, expected {expected}")
            }
            EpochError::WidthMismatch { expected, got } => {
                write!(f, "record width {got}, machine width {expected}")
            }
            EpochError::UnknownTarget(name) => {
                write!(f, "cannot rebuild target candidate '{name}'")
            }
        }
    }
}

impl std::error::Error for EpochError {}

/// The epoch state machine (see the module docs).
#[derive(Debug, Clone)]
pub struct EpochMachine {
    width: usize,
    /// Next record sequence number.
    seq: u64,
    /// Committed epochs so far (== successful swaps).
    epoch: u64,
    /// Rolled-back swap attempts.
    rollbacks: u64,
    /// The committed layout — the only one requests are served from.
    active: Candidate,
    /// The in-flight target, once proposed.
    pending: Option<Candidate>,
    phase: Phase,
}

impl EpochMachine {
    /// A machine serving `initial` at `width`, with no history.
    #[must_use]
    pub fn new(width: usize, initial: Candidate) -> Self {
        Self {
            width,
            seq: 0,
            epoch: 0,
            rollbacks: 0,
            active: initial,
            pending: None,
            phase: Phase::Stable,
        }
    }

    /// Tile width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The committed (serving) candidate.
    #[must_use]
    pub fn active(&self) -> &Candidate {
        &self.active
    }

    /// The in-flight target, if a swap is proposed or migrating.
    #[must_use]
    pub fn pending(&self) -> Option<&Candidate> {
        self.pending.as_ref()
    }

    /// Current machine phase (`Stable`, `Proposed`, or `Migrating`).
    #[must_use]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Committed epochs (successful swaps).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rolled-back swap attempts.
    #[must_use]
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// Next record sequence number.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Validate a transition and build its durable record **without**
    /// mutating the machine. Persist the record, then [`Self::apply`] it.
    ///
    /// # Errors
    /// [`EpochError`] when the transition is not legal from the current
    /// phase; the machine is unchanged.
    pub fn prepare(
        &self,
        to: Phase,
        target: Option<&Candidate>,
    ) -> Result<EpochRecord, EpochError> {
        let record =
            |epoch: u64, from: &str, to_name: &str, layout: Option<Vec<u32>>, phase| EpochRecord {
                seq: self.seq,
                epoch,
                phase,
                from: from.to_string(),
                to: to_name.to_string(),
                width: self.width as u32,
                layout,
            };
        match to {
            Phase::Proposed => {
                if self.phase != Phase::Stable {
                    return Err(EpochError::InvalidTransition {
                        from: self.phase,
                        to,
                    });
                }
                let target = target.ok_or(EpochError::MissingTarget)?;
                if target.name == self.active.name {
                    return Err(EpochError::TargetIsActive(target.name.clone()));
                }
                let layout = match &target.kind {
                    CandidateKind::Table(t) => Some(t.clone()),
                    CandidateKind::Scheme(_) => None,
                };
                Ok(record(
                    self.epoch,
                    &self.active.name,
                    &target.name,
                    layout,
                    Phase::Proposed,
                ))
            }
            Phase::Migrating => {
                if self.phase != Phase::Proposed {
                    return Err(EpochError::InvalidTransition {
                        from: self.phase,
                        to,
                    });
                }
                let pending = self.pending.as_ref().ok_or(EpochError::MissingTarget)?;
                Ok(record(
                    self.epoch,
                    &self.active.name,
                    &pending.name,
                    None,
                    Phase::Migrating,
                ))
            }
            Phase::Committed => {
                if self.phase != Phase::Migrating {
                    return Err(EpochError::InvalidTransition {
                        from: self.phase,
                        to,
                    });
                }
                let pending = self.pending.as_ref().ok_or(EpochError::MissingTarget)?;
                Ok(record(
                    self.epoch + 1,
                    &self.active.name,
                    &pending.name,
                    None,
                    Phase::Committed,
                ))
            }
            Phase::RolledBack => {
                if !matches!(self.phase, Phase::Proposed | Phase::Migrating) {
                    return Err(EpochError::InvalidTransition {
                        from: self.phase,
                        to,
                    });
                }
                let pending = self.pending.as_ref().ok_or(EpochError::MissingTarget)?;
                Ok(record(
                    self.epoch,
                    &pending.name,
                    &self.active.name,
                    None,
                    Phase::RolledBack,
                ))
            }
            Phase::Stable => Err(EpochError::InvalidTransition {
                from: self.phase,
                to,
            }),
        }
    }

    /// Apply a (persisted) record. For `Proposed`, `target` supplies the
    /// candidate — live transitions pass the one they prepared with,
    /// replay rebuilds it via [`candidate_from_record`].
    ///
    /// # Errors
    /// [`EpochError`] when the record does not extend this machine's
    /// history; the machine is unchanged on error.
    pub fn apply(
        &mut self,
        record: &EpochRecord,
        target: Option<Candidate>,
    ) -> Result<(), EpochError> {
        if record.seq != self.seq {
            return Err(EpochError::SeqMismatch {
                expected: self.seq,
                got: record.seq,
            });
        }
        if record.width as usize != self.width {
            return Err(EpochError::WidthMismatch {
                expected: self.width as u32,
                got: record.width,
            });
        }
        match record.phase {
            Phase::Proposed => {
                if self.phase != Phase::Stable {
                    return Err(EpochError::InvalidTransition {
                        from: self.phase,
                        to: record.phase,
                    });
                }
                let target = target.ok_or(EpochError::MissingTarget)?;
                if target.name == self.active.name {
                    return Err(EpochError::TargetIsActive(target.name));
                }
                self.pending = Some(target);
                self.phase = Phase::Proposed;
            }
            Phase::Migrating => {
                if self.phase != Phase::Proposed || self.pending.is_none() {
                    return Err(EpochError::InvalidTransition {
                        from: self.phase,
                        to: record.phase,
                    });
                }
                self.phase = Phase::Migrating;
            }
            Phase::Committed => {
                if self.phase != Phase::Migrating {
                    return Err(EpochError::InvalidTransition {
                        from: self.phase,
                        to: record.phase,
                    });
                }
                let Some(pending) = self.pending.take() else {
                    return Err(EpochError::MissingTarget);
                };
                self.active = pending;
                self.epoch += 1;
                self.phase = Phase::Stable;
            }
            Phase::RolledBack => {
                if !matches!(self.phase, Phase::Proposed | Phase::Migrating) {
                    return Err(EpochError::InvalidTransition {
                        from: self.phase,
                        to: record.phase,
                    });
                }
                self.pending = None;
                self.rollbacks += 1;
                self.phase = Phase::Stable;
            }
            Phase::Stable => {
                return Err(EpochError::InvalidTransition {
                    from: self.phase,
                    to: record.phase,
                });
            }
        }
        self.seq += 1;
        Ok(())
    }
}

/// Rebuild the target candidate a `Proposed` record names: synthesized
/// targets carry their table in the record, static targets rebuild from
/// the prover.
///
/// # Errors
/// [`EpochError::UnknownTarget`] when the name is neither a table record
/// nor a static scheme the prover accepts at this width.
pub fn candidate_from_record(record: &EpochRecord, width: usize) -> Result<Candidate, EpochError> {
    if let Some(layout) = &record.layout {
        return Candidate::from_table(&record.to, layout.clone(), width)
            .map_err(|_| EpochError::UnknownTarget(record.to.clone()));
    }
    record
        .to
        .parse::<Scheme>()
        .ok()
        .and_then(|scheme| Candidate::of_scheme(scheme, width).ok())
        // Ledgers spell static targets by candidate name; a record that
        // names a scheme any other way is not one this controller wrote.
        .filter(|candidate| candidate.name == record.to)
        .ok_or_else(|| EpochError::UnknownTarget(record.to.clone()))
}

/// The outcome of replaying a record stream.
#[derive(Debug)]
pub struct Replay {
    /// The machine after the fold.
    pub machine: EpochMachine,
    /// True when the stream ended mid-epoch (trailing `Proposed` or
    /// `Migrating`): the caller must append a `RolledBack` record —
    /// the interrupted swap is abandoned and the last committed layout
    /// keeps serving.
    pub interrupted: bool,
    /// Records applied.
    pub applied: usize,
}

/// Replay `records` onto a fresh machine serving `initial`.
///
/// # Errors
/// The first record that does not extend the history (the ledger's
/// open-time validation only checks parseability; semantic divergence —
/// e.g. a hand-edited file — surfaces here).
pub fn replay(
    width: usize,
    initial: Candidate,
    records: &[EpochRecord],
) -> Result<Replay, EpochError> {
    let mut machine = EpochMachine::new(width, initial);
    for record in records {
        let target = if record.phase == Phase::Proposed {
            Some(candidate_from_record(record, width)?)
        } else {
            None
        };
        machine.apply(record, target)?;
    }
    let interrupted = machine.phase() != Phase::Stable;
    let applied = records.len();
    Ok(Replay {
        machine,
        interrupted,
        applied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::standard_candidates;

    fn cands() -> Vec<Candidate> {
        standard_candidates(8)
    }

    fn machine() -> EpochMachine {
        let set = cands();
        EpochMachine::new(8, set[0].clone()) // raw
    }

    /// Drive one full prepare+apply transition.
    fn step(m: &mut EpochMachine, to: Phase, target: Option<&Candidate>) -> EpochRecord {
        let rec = m.prepare(to, target).unwrap();
        m.apply(&rec, target.cloned()).unwrap();
        rec
    }

    #[test]
    fn happy_path_commits_and_bumps_epoch() {
        let set = cands();
        let mut m = machine();
        let rap = set.iter().find(|c| c.name == "rap").unwrap();
        step(&mut m, Phase::Proposed, Some(rap));
        assert_eq!(m.phase(), Phase::Proposed);
        assert_eq!(m.active().name, "raw", "active unchanged until commit");
        step(&mut m, Phase::Migrating, None);
        assert_eq!(m.active().name, "raw", "still the old layout mid-migration");
        step(&mut m, Phase::Committed, None);
        assert_eq!(m.phase(), Phase::Stable);
        assert_eq!(m.active().name, "rap");
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.rollbacks(), 0);
    }

    #[test]
    fn rollback_restores_the_committed_layout() {
        let set = cands();
        let mut m = machine();
        let rap = set.iter().find(|c| c.name == "rap").unwrap();
        step(&mut m, Phase::Proposed, Some(rap));
        step(&mut m, Phase::Migrating, None);
        step(&mut m, Phase::RolledBack, None);
        assert_eq!(m.phase(), Phase::Stable);
        assert_eq!(m.active().name, "raw");
        assert_eq!(m.epoch(), 0);
        assert_eq!(m.rollbacks(), 1);
    }

    #[test]
    fn illegal_transitions_err_and_leave_state_alone() {
        let set = cands();
        let m = machine();
        let before = format!("{m:?}");
        assert!(m.prepare(Phase::Committed, None).is_err());
        assert!(m.prepare(Phase::Migrating, None).is_err());
        assert!(m.prepare(Phase::RolledBack, None).is_err());
        assert!(m.prepare(Phase::Stable, None).is_err());
        assert!(m.prepare(Phase::Proposed, None).is_err(), "needs target");
        let raw = set.iter().find(|c| c.name == "raw").unwrap();
        assert_eq!(
            m.prepare(Phase::Proposed, Some(raw)),
            Err(EpochError::TargetIsActive("raw".into()))
        );
        assert_eq!(format!("{m:?}"), before, "refused transitions are pure");
    }

    #[test]
    fn records_replay_to_identical_state() {
        let set = cands();
        let mut m = machine();
        let rap = set.iter().find(|c| c.name == "rap").unwrap();
        let padded = set.iter().find(|c| c.name == "padded").unwrap();
        let log = vec![
            step(&mut m, Phase::Proposed, Some(rap)),
            step(&mut m, Phase::Migrating, None),
            step(&mut m, Phase::Committed, None),
            step(&mut m, Phase::Proposed, Some(padded)),
            step(&mut m, Phase::RolledBack, None),
        ];

        let replayed = replay(8, set[0].clone(), &log).unwrap();
        assert!(!replayed.interrupted);
        assert_eq!(replayed.machine.active().name, m.active().name);
        assert_eq!(replayed.machine.epoch(), m.epoch());
        assert_eq!(replayed.machine.rollbacks(), m.rollbacks());
        assert_eq!(replayed.machine.seq(), m.seq());
    }

    #[test]
    fn interrupted_stream_is_flagged_for_rollback() {
        let set = cands();
        let mut m = machine();
        let rap = set.iter().find(|c| c.name == "rap").unwrap();
        let log = vec![
            step(&mut m, Phase::Proposed, Some(rap)),
            step(&mut m, Phase::Migrating, None),
        ];
        // kill -9 here: no Committed record.
        let replayed = replay(8, set[0].clone(), &log).unwrap();
        assert!(replayed.interrupted);
        assert_eq!(replayed.machine.active().name, "raw");
        assert_eq!(replayed.machine.phase(), Phase::Migrating);
    }

    #[test]
    fn table_targets_round_trip_through_records() {
        let set = cands();
        let table = Candidate::from_table("synth:test", vec![1, 0, 3, 2, 5, 4, 7, 6], 8).unwrap();
        let mut m = machine();
        let rec = m.prepare(Phase::Proposed, Some(&table)).unwrap();
        assert_eq!(rec.layout.as_deref(), Some(&[1, 0, 3, 2, 5, 4, 7, 6][..]));
        let rebuilt = candidate_from_record(&rec, 8).unwrap();
        assert_eq!(rebuilt, table);
        m.apply(&rec, Some(table)).unwrap();
        let json = serde_json::to_string(&rec).unwrap();
        let back: EpochRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
        let _ = set;
    }

    #[test]
    fn static_targets_rebuild_only_from_candidate_names() {
        let set = cands();
        let rap = set.iter().find(|c| c.name == "rap").unwrap();
        let rec = machine().prepare(Phase::Proposed, Some(rap)).unwrap();
        assert_eq!(candidate_from_record(&rec, 8).unwrap(), *rap);
        // Scheme names parse case-insensitively, but a ledger record
        // carries the candidate name the controller wrote, verbatim.
        for to in ["RAP", "bogus"] {
            let tampered = EpochRecord {
                to: to.to_string(),
                ..rec.clone()
            };
            assert!(matches!(
                candidate_from_record(&tampered, 8),
                Err(EpochError::UnknownTarget(ref t)) if t == to
            ));
        }
    }

    #[test]
    fn replay_rejects_tampered_sequence() {
        let set = cands();
        let mut m = machine();
        let rap = set.iter().find(|c| c.name == "rap").unwrap();
        let mut rec = step(&mut m, Phase::Proposed, Some(rap));
        rec.seq = 5;
        assert!(matches!(
            replay(8, set[0].clone(), &[rec]),
            Err(EpochError::SeqMismatch { .. })
        ));
    }
}
