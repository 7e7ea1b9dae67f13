//! Online congestion monitoring: per-class ring buffers + EWMA.
//!
//! The monitor ingests the live per-request congestion stream in
//! `rap-serve`. The hot path ([`CongestionMonitor::observe`]) is **zero
//! allocation and lock-free**: one atomic fetch-add to claim a ring
//! slot, one atomic store of the sample's IEEE-754 bit pattern, and one
//! CAS loop folding the sample into the exponentially-weighted moving
//! average. Window statistics (exact mean/max over the last `window`
//! samples) are computed on demand by scanning the ring — the *reader*
//! pays, never the request path.
//!
//! Concurrent writers may interleave slot claims and EWMA folds in any
//! order; the monitor is a trigger heuristic, not an accounting system,
//! and every safety decision downstream re-checks against *certified*
//! bounds. Replayed single-threaded (the `rap adapt` trace mode), the
//! monitor is exactly deterministic.

use std::sync::atomic::{AtomicU64, Ordering};

/// Traffic classes tracked by the monitor.
///
/// One class per Table II pattern family (`rap_access::MatrixPattern`
/// minus the internal `Broadcast`), because those are exactly the
/// families the prover can certify bounds for; `candidates::class_pattern`
/// maps a class to its pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TrafficClass {
    /// Warp `r` reads row `r` contiguously.
    Contiguous,
    /// Warp `c` reads column `c` (the paper's stride access).
    Stride,
    /// Warp `d` reads the `d`-shifted diagonal.
    Diagonal,
    /// Fresh uniform coordinates per lane.
    Random,
}

/// Number of traffic classes.
pub const CLASSES: usize = 4;

impl TrafficClass {
    /// All classes, in index order.
    pub const ALL: [TrafficClass; CLASSES] = [
        TrafficClass::Contiguous,
        TrafficClass::Stride,
        TrafficClass::Diagonal,
        TrafficClass::Random,
    ];

    /// Dense index in `0..CLASSES`.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            TrafficClass::Contiguous => 0,
            TrafficClass::Stride => 1,
            TrafficClass::Diagonal => 2,
            TrafficClass::Random => 3,
        }
    }

    /// Lower-case display name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            TrafficClass::Contiguous => "contiguous",
            TrafficClass::Stride => "stride",
            TrafficClass::Diagonal => "diagonal",
            TrafficClass::Random => "random",
        }
    }
}

impl std::fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for TrafficClass {
    type Err = String;

    /// Parse a class name, case-insensitively.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "contiguous" => Ok(TrafficClass::Contiguous),
            "stride" => Ok(TrafficClass::Stride),
            "diagonal" => Ok(TrafficClass::Diagonal),
            "random" => Ok(TrafficClass::Random),
            other => Err(format!(
                "unknown traffic class '{other}' (expected contiguous|stride|diagonal|random)"
            )),
        }
    }
}

/// Exact statistics over one class's current window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassWindow {
    /// Samples currently in the window (`min(total, window)`).
    pub samples: u64,
    /// Total observations ever recorded for the class.
    pub total: u64,
    /// Exact mean of the windowed samples (0 when empty).
    pub mean: f64,
    /// Exact max of the windowed samples (0 when empty).
    pub max: f64,
    /// Exponentially-weighted moving average (0 until the first sample).
    pub ewma: f64,
}

struct ClassRing {
    /// Total observations ever; `total % window` is the next slot.
    total: AtomicU64,
    /// EWMA as f64 bits; `EWMA_EMPTY` until the first sample.
    ewma_bits: AtomicU64,
    /// Sample values as f64 bits, one slot per windowed sample.
    slots: Box<[AtomicU64]>,
}

/// Sentinel for "no EWMA yet" — the bit pattern of a quiet NaN we never
/// produce from real congestion values (which are finite and ≥ 0).
const EWMA_EMPTY: u64 = u64::MAX;

/// The per-class congestion monitor (see the module docs).
pub struct CongestionMonitor {
    window: usize,
    alpha: f64,
    rings: [ClassRing; CLASSES],
}

impl std::fmt::Debug for CongestionMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CongestionMonitor")
            .field("window", &self.window)
            .field("alpha", &self.alpha)
            .finish_non_exhaustive()
    }
}

impl CongestionMonitor {
    /// A monitor with `window` exact samples per class and EWMA weight
    /// `alpha` (clamped to `(0, 1]`). `window` is clamped to ≥ 1.
    #[must_use]
    pub fn new(window: usize, alpha: f64) -> Self {
        let window = window.max(1);
        let alpha = if alpha.is_finite() && alpha > 0.0 && alpha <= 1.0 {
            alpha
        } else {
            0.2
        };
        let ring = || ClassRing {
            total: AtomicU64::new(0),
            ewma_bits: AtomicU64::new(EWMA_EMPTY),
            slots: (0..window).map(|_| AtomicU64::new(0)).collect(),
        };
        Self {
            window,
            alpha,
            rings: [ring(), ring(), ring(), ring()],
        }
    }

    /// Window size (samples per class).
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.window
    }

    /// Record one congestion sample for `class`. Lock-free; allocates
    /// nothing.
    pub fn observe(&self, class: TrafficClass, congestion: f64) {
        let sample = if congestion.is_finite() && congestion >= 0.0 {
            congestion
        } else {
            return; // refuse to poison the window with NaN/negative
        };
        let ring = &self.rings[class.index()];
        let n = ring.total.fetch_add(1, Ordering::AcqRel);
        let slot = (n % self.window as u64) as usize;
        ring.slots[slot].store(sample.to_bits(), Ordering::Release);
        // Fold into the EWMA with a CAS loop; contention is rare (the
        // serve worker pool is small) and the loop allocates nothing.
        let mut current = ring.ewma_bits.load(Ordering::Acquire);
        loop {
            let next = if current == EWMA_EMPTY {
                sample
            } else {
                let prev = f64::from_bits(current);
                self.alpha.mul_add(sample - prev, prev)
            };
            match ring.ewma_bits.compare_exchange_weak(
                current,
                next.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
    }

    /// Exact statistics over `class`'s current window (reader-pays scan).
    #[must_use]
    pub fn window(&self, class: TrafficClass) -> ClassWindow {
        let ring = &self.rings[class.index()];
        let total = ring.total.load(Ordering::Acquire);
        let filled = (total.min(self.window as u64)) as usize;
        let mut sum = 0.0;
        let mut max = 0.0_f64;
        for slot in ring.slots.iter().take(filled) {
            let v = f64::from_bits(slot.load(Ordering::Acquire));
            sum += v;
            if v > max {
                max = v;
            }
        }
        let ewma_bits = ring.ewma_bits.load(Ordering::Acquire);
        ClassWindow {
            samples: filled as u64,
            total,
            mean: if filled == 0 {
                0.0
            } else {
                sum / filled as f64
            },
            max,
            ewma: if ewma_bits == EWMA_EMPTY {
                0.0
            } else {
                f64::from_bits(ewma_bits)
            },
        }
    }

    /// Clear every class's window and EWMA — called after a committed
    /// swap so the new layout is judged on its own traffic.
    pub fn reset(&self) {
        for ring in &self.rings {
            ring.total.store(0, Ordering::Release);
            ring.ewma_bits.store(EWMA_EMPTY, Ordering::Release);
            for slot in &ring.slots {
                slot.store(0, Ordering::Release);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_index_round_trips() {
        for class in TrafficClass::ALL {
            assert_eq!(TrafficClass::ALL[class.index()], class);
        }
    }

    #[test]
    fn names_parse_case_insensitively_and_round_trip() {
        for class in TrafficClass::ALL {
            assert_eq!(class.to_string().parse::<TrafficClass>(), Ok(class));
            assert_eq!(
                class.name().to_ascii_uppercase().parse::<TrafficClass>(),
                Ok(class)
            );
        }
        assert_eq!("Stride".parse::<TrafficClass>(), Ok(TrafficClass::Stride));
        assert_eq!(
            "BOGUS".parse::<TrafficClass>(),
            Err(
                "unknown traffic class 'bogus' (expected contiguous|stride|diagonal|random)"
                    .to_string()
            )
        );
    }

    #[test]
    fn window_tracks_exact_mean_and_max() {
        let m = CongestionMonitor::new(4, 0.5);
        for v in [1.0, 2.0, 3.0] {
            m.observe(TrafficClass::Stride, v);
        }
        let w = m.window(TrafficClass::Stride);
        assert_eq!(w.samples, 3);
        assert_eq!(w.total, 3);
        assert!((w.mean - 2.0).abs() < 1e-12);
        assert!((w.max - 3.0).abs() < 1e-12);
        // Other classes untouched.
        assert_eq!(m.window(TrafficClass::Random).samples, 0);
    }

    #[test]
    fn ring_wraps_and_keeps_last_window_samples() {
        let m = CongestionMonitor::new(2, 0.5);
        for v in [10.0, 20.0, 30.0] {
            m.observe(TrafficClass::Diagonal, v);
        }
        let w = m.window(TrafficClass::Diagonal);
        assert_eq!(w.samples, 2);
        assert_eq!(w.total, 3);
        // Slots now hold {30, 20}.
        assert!((w.mean - 25.0).abs() < 1e-12);
        assert!((w.max - 30.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_starts_at_first_sample_then_decays() {
        let m = CongestionMonitor::new(8, 0.5);
        m.observe(TrafficClass::Contiguous, 4.0);
        assert!((m.window(TrafficClass::Contiguous).ewma - 4.0).abs() < 1e-12);
        m.observe(TrafficClass::Contiguous, 0.0);
        assert!((m.window(TrafficClass::Contiguous).ewma - 2.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_and_negative_samples_are_dropped() {
        let m = CongestionMonitor::new(4, 0.5);
        m.observe(TrafficClass::Random, f64::NAN);
        m.observe(TrafficClass::Random, f64::INFINITY);
        m.observe(TrafficClass::Random, -1.0);
        assert_eq!(m.window(TrafficClass::Random).samples, 0);
    }

    #[test]
    fn reset_clears_everything() {
        let m = CongestionMonitor::new(4, 0.5);
        m.observe(TrafficClass::Stride, 5.0);
        m.reset();
        let w = m.window(TrafficClass::Stride);
        assert_eq!(w.samples, 0);
        assert_eq!(w.total, 0);
        assert!((w.ewma).abs() < 1e-12);
    }
}
