//! The affine-access IR: a warp's requests as affine functions of the
//! lane index.
//!
//! Every access pattern the conformance generator and the application
//! kernels issue is affine in the lane index `t`: either a **flat**
//! logical index `l(t) = stride·t + offset` into the row-major `w × w`
//! matrix, or a **coordinate** pair `(i(t), j(t))` with each axis of the
//! form `coeff·t + offset (mod w)`. The prover in [`crate::engine`]
//! reasons about these forms symbolically — the cells a form touches are
//! concrete, while the scheme's shift table stays a free variable.
//!
//! The wrap semantics of [`AffineForm::Coord`] (both axes reduced mod
//! `w`) match the diagonal family of the conformance generator
//! (`i(t) = (t + d) mod w`); the flat form is *not* wrapped — an index
//! outside `w²` is a domain error ([`AnalyzeError::OutOfDomain`], lint
//! rule `RAP-E001`), because it would silently alias another matrix.

use serde::{Deserialize, Serialize};

/// Errors of the static analyzer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnalyzeError {
    /// The machine width was zero — no banks to analyze.
    ZeroWidth,
    /// A lane's request falls outside the `w × w` logical matrix.
    OutOfDomain {
        /// Lane whose request left the domain.
        lane: usize,
        /// The offending flat logical index (`i·w + j`).
        index: u64,
        /// The matrix area `w²` the index must stay below.
        area: u64,
    },
    /// The XOR swizzle is only defined for power-of-two widths ≥ 2.
    XorNeedsPow2 {
        /// The rejected width.
        width: usize,
    },
    /// Certification was stopped by its caller before it finished.
    Stopped,
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::ZeroWidth => write!(f, "machine width must be positive"),
            AnalyzeError::OutOfDomain { lane, index, area } => write!(
                f,
                "lane {lane} requests flat index {index}, outside the w² = {area} matrix"
            ),
            AnalyzeError::XorNeedsPow2 { width } => {
                write!(f, "XOR swizzle needs a power-of-two width ≥ 2, got {width}")
            }
            AnalyzeError::Stopped => write!(f, "certification was stopped before it finished"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// One affine coordinate axis, `value(t) = coeff·t + offset`, evaluated
/// mod `w`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Axis {
    /// Coefficient of the lane index `t`.
    pub coeff: u64,
    /// Constant offset.
    pub offset: u64,
}

impl Axis {
    /// `coeff·t + offset`.
    #[must_use]
    pub const fn new(coeff: u64, offset: u64) -> Self {
        Self { coeff, offset }
    }

    /// The constant axis `offset`.
    #[must_use]
    pub const fn constant(offset: u64) -> Self {
        Self { coeff: 0, offset }
    }

    /// The identity axis `t`.
    #[must_use]
    pub const fn lane() -> Self {
        Self {
            coeff: 1,
            offset: 0,
        }
    }

    /// Evaluate at lane `t` on a width-`w` machine (`w > 0`), mod `w`.
    #[must_use]
    pub fn eval(self, t: u64, w: u64) -> u64 {
        // u128 intermediates: coeff and offset are caller-controlled and
        // must not overflow before the reduction.
        ((u128::from(self.coeff) * u128::from(t) + u128::from(self.offset)) % u128::from(w)) as u64
    }
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.coeff, self.offset) {
            (0, b) => write!(f, "{b}"),
            (1, 0) => write!(f, "t"),
            (1, b) => write!(f, "t + {b}"),
            (a, 0) => write!(f, "{a}·t"),
            (a, b) => write!(f, "{a}·t + {b}"),
        }
    }
}

/// An affine description of one warp's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AffineForm {
    /// Flat logical index `l(t) = stride·t + offset` into the row-major
    /// `w × w` matrix, decoded as `(l / w, l mod w)`. Not wrapped: the
    /// whole warp must satisfy `l(t) < w²`.
    Flat {
        /// Per-lane step.
        stride: u64,
        /// Lane-0 index.
        offset: u64,
    },
    /// Coordinate form `(i(t), j(t))`, each axis reduced mod `w`.
    Coord {
        /// The row axis.
        i: Axis,
        /// The column axis.
        j: Axis,
    },
}

impl std::fmt::Display for AffineForm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AffineForm::Flat { stride, offset } => {
                write!(f, "l(t) = {}", Axis::new(*stride, *offset))
            }
            AffineForm::Coord { i, j } => write!(f, "(i(t), j(t)) = ({i} mod w, {j} mod w)"),
        }
    }
}

/// An affine form plus the number of lanes issuing it — the unit the
/// prover certifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AffineWarp {
    /// The per-lane affine request.
    pub form: AffineForm,
    /// Number of lanes (`t` ranges over `0..lanes`).
    pub lanes: usize,
}

impl AffineWarp {
    /// A warp of `lanes` threads issuing `form`.
    #[must_use]
    pub const fn new(form: AffineForm, lanes: usize) -> Self {
        Self { form, lanes }
    }

    /// Contiguous access: lane `t` reads `(row, t)` — the paper's
    /// conflict-free-everywhere family.
    #[must_use]
    pub const fn contiguous(row: u64, lanes: usize) -> Self {
        Self::new(
            AffineForm::Coord {
                i: Axis::constant(row),
                j: Axis::lane(),
            },
            lanes,
        )
    }

    /// Column (stride-`w`) access: lane `t` reads `(t, col)` — the
    /// family Theorem 2 certifies under RAP.
    #[must_use]
    pub const fn column(col: u64, lanes: usize) -> Self {
        Self::new(
            AffineForm::Coord {
                i: Axis::lane(),
                j: Axis::constant(col),
            },
            lanes,
        )
    }

    /// Diagonal access: lane `t` reads `((t + offset) mod w, t)` — the
    /// DRDW sweep.
    #[must_use]
    pub const fn diagonal(offset: u64, lanes: usize) -> Self {
        Self::new(
            AffineForm::Coord {
                i: Axis::new(1, offset),
                j: Axis::lane(),
            },
            lanes,
        )
    }

    /// Broadcast: every lane reads the single cell `(i, j)`.
    #[must_use]
    pub const fn broadcast(i: u64, j: u64, lanes: usize) -> Self {
        Self::new(
            AffineForm::Coord {
                i: Axis::constant(i),
                j: Axis::constant(j),
            },
            lanes,
        )
    }

    /// Flat stride access: lane `t` reads logical index
    /// `offset + t·stride`.
    #[must_use]
    pub const fn flat_stride(stride: u64, offset: u64, lanes: usize) -> Self {
        Self::new(AffineForm::Flat { stride, offset }, lanes)
    }

    /// The concrete logical cells the warp touches on a width-`width`
    /// machine, one per lane in lane order.
    ///
    /// # Errors
    /// [`AnalyzeError::ZeroWidth`] if `width == 0`;
    /// [`AnalyzeError::OutOfDomain`] if a flat index reaches `w²` (or
    /// overflows `u64`).
    pub fn cells(&self, width: usize) -> Result<Vec<(u32, u32)>, AnalyzeError> {
        if width == 0 {
            return Err(AnalyzeError::ZeroWidth);
        }
        let w = width as u64;
        let area = w.saturating_mul(w);
        let mut cells = Vec::with_capacity(self.lanes);
        for t in 0..self.lanes as u64 {
            let (i, j) = match self.form {
                AffineForm::Flat { stride, offset } => {
                    let l = stride
                        .checked_mul(t)
                        .and_then(|x| x.checked_add(offset))
                        .ok_or(AnalyzeError::OutOfDomain {
                            lane: t as usize,
                            index: u64::MAX,
                            area,
                        })?;
                    if l >= area {
                        return Err(AnalyzeError::OutOfDomain {
                            lane: t as usize,
                            index: l,
                            area,
                        });
                    }
                    (l / w, l % w)
                }
                AffineForm::Coord { i, j } => (i.eval(t, w), j.eval(t, w)),
            };
            cells.push((i as u32, j as u32));
        }
        Ok(cells)
    }
}

impl std::fmt::Display for AffineWarp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} over {} lane(s)", self.form, self.lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_cells_are_one_row() {
        let cells = AffineWarp::contiguous(3, 4).cells(4).unwrap();
        assert_eq!(cells, vec![(3, 0), (3, 1), (3, 2), (3, 3)]);
    }

    #[test]
    fn column_cells_sweep_rows() {
        let cells = AffineWarp::column(2, 4).cells(4).unwrap();
        assert_eq!(cells, vec![(0, 2), (1, 2), (2, 2), (3, 2)]);
    }

    #[test]
    fn diagonal_wraps_mod_w() {
        let cells = AffineWarp::diagonal(2, 4).cells(4).unwrap();
        assert_eq!(cells, vec![(2, 0), (3, 1), (0, 2), (1, 3)]);
    }

    #[test]
    fn broadcast_repeats_one_cell() {
        let cells = AffineWarp::broadcast(1, 2, 3).cells(4).unwrap();
        assert_eq!(cells, vec![(1, 2); 3]);
    }

    #[test]
    fn flat_stride_decodes_row_major() {
        // l = 0, 2, 4, 6 in a 4×4 matrix → (0,0) (0,2) (1,0) (1,2).
        let cells = AffineWarp::flat_stride(2, 0, 4).cells(4).unwrap();
        assert_eq!(cells, vec![(0, 0), (0, 2), (1, 0), (1, 2)]);
    }

    #[test]
    fn flat_out_of_domain_is_an_error() {
        let err = AffineWarp::flat_stride(4, 0, 5).cells(4).unwrap_err();
        assert_eq!(
            err,
            AnalyzeError::OutOfDomain {
                lane: 4,
                index: 16,
                area: 16
            }
        );
        assert!(err.to_string().contains("outside the w²"));
    }

    #[test]
    fn flat_overflow_is_an_error() {
        let err = AffineWarp::flat_stride(u64::MAX, u64::MAX, 3)
            .cells(4)
            .unwrap_err();
        assert!(matches!(err, AnalyzeError::OutOfDomain { .. }));
    }

    #[test]
    fn zero_width_rejected() {
        assert_eq!(
            AffineWarp::contiguous(0, 4).cells(0),
            Err(AnalyzeError::ZeroWidth)
        );
    }

    #[test]
    fn coord_rows_wrap_when_lanes_exceed_width() {
        let cells = AffineWarp::column(0, 5).cells(4).unwrap();
        assert_eq!(cells[4], (0, 0), "lane 4 wraps back to row 0");
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            AffineWarp::flat_stride(3, 5, 8).to_string(),
            "l(t) = 3·t + 5 over 8 lane(s)"
        );
        assert_eq!(
            AffineWarp::contiguous(2, 4).form.to_string(),
            "(i(t), j(t)) = (2 mod w, t mod w)"
        );
        assert_eq!(Axis::new(1, 3).to_string(), "t + 3");
        assert_eq!(Axis::lane().to_string(), "t");
    }
}
