//! The symbolic congestion prover.
//!
//! Given the concrete cells a warp touches and a [`Scheme`], the prover
//! computes a congestion interval `[lo, hi]` that holds for **every**
//! instantiation of the scheme's random state — the RAS shift table
//! `r_0..r_{w−1}` and the RAP permutation `σ` are treated as symbolic
//! unknowns, never sampled. The verdict is therefore a theorem about the
//! scheme, not an observation about one seed:
//!
//! * every instantiation has congestion in `[lo, hi]`;
//! * `hi` is *attained*: the returned [`Witness`] names a concrete shift
//!   table reaching it (for the deterministic schemes the table is the
//!   scheme itself);
//! * `lo == hi` means the congestion is the same for every instantiation
//!   (so `hi ≤ 1` is exactly "conflict-free for all σ" — the real
//!   Theorem 2 statement).
//!
//! The symbolic arguments, all mod-`w` residue reasoning:
//!
//! * **dedup is scheme-independent** — every mapping here is injective on
//!   cells, so CRCW merging collapses duplicate *cells* no matter the
//!   shifts, and distinct cells never merge;
//! * **rows are bank-disjoint internally** — a row-shift mapping sends
//!   row `i`'s distinct columns to distinct banks (`j ↦ (j + s_i) mod w`
//!   is injective), so each touched row contributes at most one unique
//!   request per bank and any bank's load is at most `R`, the number of
//!   touched rows;
//! * **RAS**: the shifts are independent and unconstrained, so each
//!   touched row can be aligned onto one common bank
//!   (`r_i = (w − j_i) mod w` for any chosen `j_i` in row `i`) — the
//!   adversarial maximum is exactly `R`;
//! * **RAP**: row shifts must be pairwise distinct, so a bank `b`'s load
//!   under any `σ` is a matching between touched rows `i` and shift
//!   values `v` with `(j + v) ≡ b (mod w)` for some touched column `j`
//!   of row `i`. The compatible value sets `(b − J_i) mod w` for
//!   different banks differ only by a global translation of the value
//!   side, so the maximum matching size `M` is bank-independent; `hi = M`
//!   is computed once (Kuhn's augmenting-path algorithm at `b = 0`) and
//!   attained by completing a maximum matching into a permutation;
//! * **lower bound**: `lo = max(1, ⌈U / w⌉)` by pigeonhole over the `U`
//!   unique cells — sound for every scheme and every instantiation.

use crate::ir::{AffineWarp, AnalyzeError};
use rap_core::Scheme;
use serde::{Deserialize, Serialize};

/// A concrete instantiation attaining the proven maximum `hi`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Witness {
    /// The full per-row shift table reaching `hi` (all zeros for RAW, a
    /// permutation for RAP; empty for XOR/Padded, whose banks are fixed
    /// by the scheme itself).
    pub shifts: Vec<u32>,
    /// The bank receiving `hi` unique requests under the witness table.
    pub bank: u32,
    /// The minimal witness warp: `hi` lane indices whose requests land
    /// in `bank` with pairwise distinct addresses.
    pub lanes: Vec<u32>,
}

/// The prover's verdict for one warp under one scheme.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Analysis {
    /// Scheme the verdict quantifies over.
    pub scheme: Scheme,
    /// Machine width (banks / matrix dimension).
    pub width: usize,
    /// Lanes in the analyzed warp.
    pub lanes: usize,
    /// Distinct cells after CRCW merging (scheme-independent).
    pub unique_cells: usize,
    /// Number of matrix rows the unique cells touch.
    pub rows_touched: usize,
    /// Proven lower bound: every instantiation has congestion ≥ `lo`.
    pub lo: u32,
    /// Proven and attained maximum: every instantiation has congestion
    /// ≤ `hi`, and the witness instantiation reaches it.
    pub hi: u32,
    /// One-line proof sketch of the verdict.
    pub reason: String,
    /// Instantiation attaining `hi` (absent only for the empty access).
    pub witness: Option<Witness>,
}

impl Analysis {
    /// Whether the congestion is the same for every instantiation.
    #[must_use]
    pub fn exact(&self) -> bool {
        self.lo == self.hi
    }

    /// Conflict-free for **every** instantiation (`hi ≤ 1`).
    #[must_use]
    pub fn conflict_free_for_all(&self) -> bool {
        self.hi <= 1
    }

    /// Conflicts under **every** instantiation (`lo > 1`).
    #[must_use]
    pub fn always_conflicts(&self) -> bool {
        self.lo > 1
    }

    /// Whether a simulated congestion value is consistent with the
    /// proven interval.
    #[must_use]
    pub fn contains(&self, congestion: u32) -> bool {
        (self.lo..=self.hi).contains(&congestion)
    }
}

impl std::fmt::Display for Analysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} w={}: congestion in [{}, {}] ({} unique cell(s), {} row(s)) — {}",
            self.scheme,
            self.width,
            self.lo,
            self.hi,
            self.unique_cells,
            self.rows_touched,
            self.reason
        )
    }
}

/// The symbolic congestion prover for one machine width.
#[derive(Debug, Clone, Copy)]
pub struct Prover {
    width: usize,
}

impl Prover {
    /// A prover for a width-`width` machine.
    ///
    /// # Errors
    /// [`AnalyzeError::ZeroWidth`] if `width == 0` — mirroring the
    /// simulator's explicit zero-width panic contract.
    pub fn new(width: usize) -> Result<Self, AnalyzeError> {
        if width == 0 {
            return Err(AnalyzeError::ZeroWidth);
        }
        Ok(Self { width })
    }

    /// The machine width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Analyze an affine warp under `scheme`.
    ///
    /// # Errors
    /// Domain errors from [`AffineWarp::cells`], or
    /// [`AnalyzeError::XorNeedsPow2`] for XOR at a non-power-of-two
    /// width.
    pub fn analyze(&self, warp: &AffineWarp, scheme: Scheme) -> Result<Analysis, AnalyzeError> {
        let cells = warp.cells(self.width)?;
        self.analyze_cells(&cells, scheme)
    }

    /// Analyze an explicit per-lane cell list under `scheme` — the
    /// general entry point (the affine families all reduce to it).
    ///
    /// # Errors
    /// [`AnalyzeError::OutOfDomain`] if a cell leaves the `w × w`
    /// matrix; [`AnalyzeError::XorNeedsPow2`] for XOR at a
    /// non-power-of-two width.
    pub fn analyze_cells(
        &self,
        cells: &[(u32, u32)],
        scheme: Scheme,
    ) -> Result<Analysis, AnalyzeError> {
        let unique = self.unique_cells(cells, scheme)?;
        if unique.is_empty() {
            return Ok(Analysis {
                scheme,
                width: self.width,
                lanes: cells.len(),
                unique_cells: 0,
                rows_touched: 0,
                lo: 0,
                hi: 0,
                reason: "empty access: no requests, congestion 0".into(),
                witness: None,
            });
        }
        let rows: Vec<&[Cell]> = unique.chunk_by(|a, b| a.i == b.i).collect();
        let (lo, hi, attainer) = self.interval(scheme, &unique, &rows);
        let (reason, witness) = match attainer {
            Attainer::HotBank(hot) => self.deterministic_witness(scheme, &unique, hot, hi),
            Attainer::Rows => self.ras_witness(&rows),
            Attainer::Matching(value_owner) => self.rap_witness(&rows, &value_owner),
        };
        Ok(Analysis {
            scheme,
            width: self.width,
            lanes: cells.len(),
            unique_cells: unique.len(),
            rows_touched: rows.len(),
            lo,
            hi,
            reason,
            witness: Some(witness),
        })
    }

    /// The `(lo, hi)` interval of [`Prover::analyze`], without building
    /// the witness or the proof sketch.
    pub(crate) fn bounds(
        &self,
        warp: &AffineWarp,
        scheme: Scheme,
    ) -> Result<(u32, u32), AnalyzeError> {
        let cells = warp.cells(self.width)?;
        let unique = self.unique_cells(&cells, scheme)?;
        let rows: Vec<&[Cell]> = unique.chunk_by(|a, b| a.i == b.i).collect();
        let (lo, hi, _) = self.interval(scheme, &unique, &rows);
        Ok((lo, hi))
    }

    /// The proven interval `[lo, hi]` of `scheme` over the merged cells
    /// `unique`, grouped into their touched `rows`, and what attains `hi`.
    /// Every rule gives `(0, 0)` for the empty access.
    fn interval(&self, scheme: Scheme, unique: &[Cell], rows: &[&[Cell]]) -> (u32, u32, Attainer) {
        let lo = self.pigeonhole(unique);
        match scheme {
            // No free variables: the congestion is one evaluated value.
            Scheme::Raw | Scheme::Xor | Scheme::Padded => {
                let (hot, c) = self.fixed_loads(scheme, unique);
                (c, c, Attainer::HotBank(hot))
            }
            // Unconstrained shifts: one bank can take one request per row.
            Scheme::Ras => {
                let hi = rows.len() as u32;
                (lo.min(hi), hi, Attainer::Rows)
            }
            // Distinct shifts: a bank's load is a row/shift-value matching.
            Scheme::Rap => {
                let (matched, value_owner) = max_matching(rows, self.width);
                let hi = matched as u32;
                (lo.min(hi), hi, Attainer::Matching(value_owner))
            }
        }
    }

    /// Validate `cells` for `scheme` and merge them: the distinct cells,
    /// sorted by row then column, each with the first lane touching it.
    ///
    /// CRCW dedup is by *cell*: every scheme here maps cells injectively,
    /// so duplicate cells merge and distinct cells never do, whatever the
    /// shift table.
    fn unique_cells(
        &self,
        cells: &[(u32, u32)],
        scheme: Scheme,
    ) -> Result<Vec<Cell>, AnalyzeError> {
        let w = self.width as u32;
        for (lane, &(i, j)) in cells.iter().enumerate() {
            if i >= w || j >= w {
                return Err(AnalyzeError::OutOfDomain {
                    lane,
                    index: u64::from(i) * u64::from(w) + u64::from(j),
                    area: u64::from(w) * u64::from(w),
                });
            }
        }
        if scheme == Scheme::Xor && (self.width < 2 || !self.width.is_power_of_two()) {
            return Err(AnalyzeError::XorNeedsPow2 { width: self.width });
        }
        let mut unique: Vec<Cell> = cells
            .iter()
            .zip(0u32..)
            .map(|(&(i, j), lane)| Cell { i, j, lane })
            .collect();
        // Sorting by (i, j, lane) puts each cell's first lane first.
        unique.sort_unstable();
        unique.dedup_by_key(|c| (c.i, c.j));
        Ok(unique)
    }

    /// The pigeonhole lower bound `max(1, ⌈U / w⌉)` over `U` unique cells.
    fn pigeonhole(&self, unique: &[Cell]) -> u32 {
        (unique.len() as u32).div_ceil(self.width as u32).max(1)
    }

    /// Fixed bank of a cell under the deterministic schemes.
    fn fixed_bank(&self, scheme: Scheme, i: u32, j: u32) -> u32 {
        let w = self.width as u32;
        match scheme {
            Scheme::Raw => j,
            // (i·w + (j ^ i)) mod w = (j ^ i) mod w, and j ^ i < w for
            // power-of-two w.
            Scheme::Xor => j ^ (i % w),
            // i·(w+1) + j ≡ i + j (mod w).
            Scheme::Padded => (i + j) % w,
            Scheme::Ras | Scheme::Rap => unreachable!("symbolic schemes have no fixed bank"),
        }
    }

    /// The hottest bank under a deterministic scheme (the highest-numbered
    /// one on a tie) and its load.
    fn fixed_loads(&self, scheme: Scheme, unique: &[Cell]) -> (u32, u32) {
        let mut loads = vec![0u32; self.width];
        for c in unique {
            loads[self.fixed_bank(scheme, c.i, c.j) as usize] += 1;
        }
        let hot = (0..self.width as u32)
            .max_by_key(|&b| loads[b as usize])
            .unwrap_or(0);
        (hot, loads[hot as usize])
    }

    /// RAW / XOR / Padded: the witness is the scheme itself and the lanes
    /// of its hottest bank `hot`, which receives `c` unique requests.
    fn deterministic_witness(
        &self,
        scheme: Scheme,
        unique: &[Cell],
        hot: u32,
        c: u32,
    ) -> (String, Witness) {
        let lanes: Vec<u32> = unique
            .iter()
            .filter(|cell| self.fixed_bank(scheme, cell.i, cell.j) == hot)
            .map(|cell| cell.lane)
            .collect();
        let shifts = if scheme == Scheme::Raw {
            vec![0; self.width]
        } else {
            Vec::new()
        };
        let reason = format!(
            "{scheme} is deterministic: banks are fixed, bank {hot} receives {c} unique request(s)"
        );
        (
            reason,
            Witness {
                shifts,
                bank: hot,
                lanes,
            },
        )
    }

    /// RAS: the shift table aligning every touched row onto bank 0.
    fn ras_witness(&self, rows: &[&[Cell]]) -> (String, Witness) {
        let w = self.width as u32;
        let hi = rows.len();
        let mut shifts = vec![0u32; self.width];
        let mut lanes = Vec::with_capacity(hi);
        for row in rows {
            // Align this row's first touched column onto bank 0.
            let first = row[0];
            shifts[first.i as usize] = (w - first.j) % w;
            lanes.push(first.lane);
        }
        let reason = if hi <= 1 {
            "single touched row: within-row banks are pairwise distinct under every shift table"
                .to_string()
        } else {
            format!(
                "RAS shifts are unconstrained: each of the {hi} touched rows aligns onto one bank \
                 (r_i = (w − j_i) mod w), and no bank can exceed one unique request per row"
            )
        };
        (
            reason,
            Witness {
                shifts,
                bank: 0,
                lanes,
            },
        )
    }

    /// RAP: the maximum matching `value_owner` (per shift value, the row
    /// owning it) completed into a permutation that attains it at bank 0.
    fn rap_witness(&self, rows: &[&[Cell]], value_owner: &[Option<usize>]) -> (String, Witness) {
        let w = self.width as u32;
        // Complete the matching into a full permutation: matched rows
        // keep their values, every other row takes a leftover value.
        let mut shifts = vec![u32::MAX; self.width];
        let mut taken = vec![false; self.width];
        let mut lanes = Vec::new();
        for (v, owner) in value_owner.iter().enumerate() {
            if let Some(r) = owner {
                let row = rows[*r];
                shifts[row[0].i as usize] = v as u32;
                taken[v] = true;
                // The touched column this value aligns onto bank 0.
                let j = (w - v as u32) % w;
                let k = row
                    .binary_search_by_key(&j, |c| c.j)
                    .expect("a matched value comes from a touched column");
                lanes.push(row[k].lane);
            }
        }
        let mut free = (0..w).filter(|&v| !taken[v as usize]);
        for s in &mut shifts {
            if *s == u32::MAX {
                *s = free.next().expect("as many free values as free rows");
            }
        }
        lanes.sort_unstable();

        let hi = lanes.len();
        let reason = if hi <= 1 {
            format!(
                "RAP: σ is injective, so no bank can receive two of the touched rows' requests \
                 (maximum row/shift-value matching has size {hi})"
            )
        } else {
            format!(
                "RAP: a bank's load under any σ is a matching between the {} touched rows and \
                 compatible shift values; the maximum matching has size {hi} and the witness \
                 permutation attains it",
                rows.len()
            )
        };
        (
            reason,
            Witness {
                shifts,
                bank: 0,
                lanes,
            },
        )
    }
}

/// What attains the proven maximum `hi` of one scheme.
enum Attainer {
    /// RAW / XOR / Padded: this hottest bank under the fixed banks.
    HotBank(u32),
    /// RAS: one request per touched row, every row aligned onto one bank.
    Rows,
    /// RAP: a maximum row/shift-value matching, per value the row owning it.
    Matching(Vec<Option<usize>>),
}

/// A distinct cell `(i, j)` and the first lane touching it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Cell {
    i: u32,
    j: u32,
    lane: u32,
}

/// Kuhn's augmenting-path maximum bipartite matching between touched rows
/// and shift values `0..width`, where row `r` is compatible with the
/// values `(w − j) mod w` of its columns `j` (those aligning it onto bank
/// 0). Returns the matching size and, per value, the row owning it.
fn max_matching(rows: &[&[Cell]], width: usize) -> (usize, Vec<Option<usize>>) {
    let mut value_owner: Vec<Option<usize>> = vec![None; width];
    let mut visited = vec![false; width];
    let mut matched = 0;
    for r in 0..rows.len() {
        visited.fill(false);
        if augment(r, rows, width as u32, &mut value_owner, &mut visited) {
            matched += 1;
        }
    }
    (matched, value_owner)
}

fn augment(
    r: usize,
    rows: &[&[Cell]],
    w: u32,
    value_owner: &mut [Option<usize>],
    visited: &mut [bool],
) -> bool {
    for cell in rows[r] {
        let v = ((w - cell.j) % w) as usize;
        if visited[v] {
            continue;
        }
        visited[v] = true;
        let displaced = value_owner[v];
        if displaced.is_none() || augment(displaced.unwrap(), rows, w, value_owner, visited) {
            value_owner[v] = Some(r);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_core::{MatrixMapping, Permutation, RowShift};

    fn prover(w: usize) -> Prover {
        Prover::new(w).unwrap()
    }

    #[test]
    fn zero_width_is_rejected() {
        assert_eq!(Prover::new(0).unwrap_err(), AnalyzeError::ZeroWidth);
    }

    #[test]
    fn empty_access_is_zero_everywhere() {
        for scheme in Scheme::all() {
            let a = prover(8).analyze_cells(&[], scheme).unwrap();
            assert_eq!((a.lo, a.hi), (0, 0));
            assert!(a.exact());
            assert!(a.witness.is_none());
        }
    }

    #[test]
    fn out_of_domain_cell_is_rejected() {
        let err = prover(4).analyze_cells(&[(0, 0), (4, 0)], Scheme::Raw);
        assert!(matches!(
            err,
            Err(AnalyzeError::OutOfDomain { lane: 1, .. })
        ));
    }

    #[test]
    fn xor_needs_pow2() {
        assert_eq!(
            prover(12).analyze_cells(&[(0, 0)], Scheme::Xor),
            Err(AnalyzeError::XorNeedsPow2 { width: 12 })
        );
        assert!(prover(16).analyze_cells(&[(0, 0)], Scheme::Xor).is_ok());
    }

    /// Theorem 2's heart: a full column under RAP is conflict-free for
    /// EVERY σ — proven, not sampled.
    #[test]
    fn rap_column_is_conflict_free_for_all_sigma() {
        for w in [1usize, 2, 3, 5, 8, 32, 33, 127, 129] {
            let p = prover(w);
            for c in [0u64, (w as u64) / 2, w as u64 - 1] {
                let a = p.analyze(&AffineWarp::column(c, w), Scheme::Rap).unwrap();
                assert!(a.conflict_free_for_all(), "w={w} c={c}: {a}");
                assert!(a.exact());
            }
        }
    }

    /// The intermediate dividing strides are NOT conflict-free for all
    /// σ: w=4, stride 2 touches cells (0,0),(0,2),(1,0),(1,2) and
    /// σ = (0,2,·,·) sends two of them into one bank.
    #[test]
    fn rap_stride2_at_w4_reaches_two() {
        let a = prover(4)
            .analyze(&AffineWarp::flat_stride(2, 0, 4), Scheme::Rap)
            .unwrap();
        assert_eq!(a.hi, 2, "{a}");
        assert_eq!(a.lo, 1);
        let wit = a.witness.unwrap();
        let sigma = Permutation::from_table(wit.shifts.clone()).expect("witness is a permutation");
        let m = RowShift::rap_from(sigma);
        let addrs: Vec<u64> = AffineWarp::flat_stride(2, 0, 4)
            .cells(4)
            .unwrap()
            .iter()
            .map(|&(i, j)| u64::from(m.address(i, j)))
            .collect();
        assert_eq!(
            rap_core::congestion::congestion(4, &addrs),
            2,
            "witness attains hi"
        );
    }

    #[test]
    fn raw_column_serializes_exactly_w() {
        for w in [1usize, 4, 32, 127] {
            let a = prover(w)
                .analyze(&AffineWarp::column(0, w), Scheme::Raw)
                .unwrap();
            assert_eq!((a.lo, a.hi), (w as u32, w as u32), "w={w}");
            let wit = a.witness.unwrap();
            assert_eq!(wit.lanes.len(), w);
            assert!(wit.shifts.iter().all(|&s| s == 0));
        }
    }

    #[test]
    fn contiguous_is_conflict_free_under_every_scheme() {
        for w in [1usize, 2, 8, 33] {
            for scheme in Scheme::all() {
                let a = prover(w)
                    .analyze(&AffineWarp::contiguous(0, w), scheme)
                    .unwrap();
                assert!(a.conflict_free_for_all(), "{scheme} w={w}: {a}");
            }
        }
    }

    #[test]
    fn broadcast_merges_to_one() {
        for scheme in Scheme::all() {
            let a = prover(8)
                .analyze(&AffineWarp::broadcast(3, 5, 8), scheme)
                .unwrap();
            assert_eq!((a.lo, a.hi), (1, 1), "{scheme}");
            assert_eq!(a.unique_cells, 1);
        }
    }

    /// Diagonal under RAP: one cell per row with pairwise distinct
    /// compatible values → the adversarial σ aligns all w rows onto one
    /// bank.
    #[test]
    fn rap_diagonal_range_is_one_to_w() {
        let w = 8;
        let a = prover(w)
            .analyze(&AffineWarp::diagonal(0, w), Scheme::Rap)
            .unwrap();
        assert_eq!((a.lo, a.hi), (1, w as u32));
        let wit = a.witness.unwrap();
        let sigma = Permutation::from_table(wit.shifts).unwrap();
        let m = RowShift::rap_from(sigma);
        let addrs: Vec<u64> = AffineWarp::diagonal(0, w)
            .cells(w)
            .unwrap()
            .iter()
            .map(|&(i, j)| u64::from(m.address(i, j)))
            .collect();
        assert_eq!(rap_core::congestion::congestion(w, &addrs), w as u32);
    }

    #[test]
    fn ras_hi_is_rows_touched_and_witness_attains_it() {
        let w = 8;
        let cells = [(0u32, 1u32), (2, 5), (5, 3), (5, 4)];
        let a = prover(w).analyze_cells(&cells, Scheme::Ras).unwrap();
        assert_eq!(a.rows_touched, 3);
        assert_eq!(a.hi, 3);
        let wit = a.witness.unwrap();
        let m = RowShift::ras_from(w, wit.shifts).unwrap();
        let addrs: Vec<u64> = cells
            .iter()
            .map(|&(i, j)| u64::from(m.address(i, j)))
            .collect();
        assert_eq!(rap_core::congestion::congestion(w, &addrs), 3);
        assert_eq!(wit.lanes.len(), 3);
    }

    /// Full-matrix warps: U = R·w unique cells force lo = R by
    /// pigeonhole, and hi = R too — exact for every instantiation.
    #[test]
    fn full_rows_are_exact_under_symbolic_schemes() {
        let w = 4;
        let cells: Vec<(u32, u32)> = (0..2u32)
            .flat_map(|i| (0..w as u32).map(move |j| (i, j)))
            .collect();
        for scheme in [Scheme::Ras, Scheme::Rap] {
            let a = prover(w).analyze_cells(&cells, scheme).unwrap();
            assert_eq!((a.lo, a.hi), (2, 2), "{scheme}");
            assert!(a.exact());
        }
    }

    #[test]
    fn witness_lanes_form_minimal_colliding_subwarp() {
        let w = 6;
        let warp = AffineWarp::diagonal(1, w);
        for scheme in Scheme::all() {
            let a = prover(w).analyze(&warp, scheme).unwrap();
            let Some(wit) = a.witness else { continue };
            assert_eq!(wit.lanes.len() as u32, a.hi, "{scheme}");
            // All witness lanes map into the witness bank with distinct
            // addresses under the witness table.
            if scheme == Scheme::Rap {
                Permutation::from_table(wit.shifts.clone()).expect("valid permutation");
            }
            if !wit.shifts.is_empty() {
                let m = RowShift::ras_from(w, wit.shifts).unwrap();
                let cells = warp.cells(w).unwrap();
                let addrs: Vec<u64> = wit
                    .lanes
                    .iter()
                    .map(|&l| {
                        let (i, j) = cells[l as usize];
                        u64::from(m.address(i, j))
                    })
                    .collect();
                let loads = rap_core::BankLoads::analyze(w, &addrs);
                assert_eq!(loads.congestion(), a.hi);
                assert_eq!(loads.load(wit.bank), a.hi);
            }
        }
    }

    #[test]
    fn display_mentions_interval() {
        let a = prover(4)
            .analyze(&AffineWarp::column(1, 4), Scheme::Rap)
            .unwrap();
        let s = a.to_string();
        assert!(s.contains("congestion in [1, 1]"), "{s}");
    }

    #[test]
    fn bounds_match_the_full_analysis() {
        for w in [1usize, 2, 3, 4, 6, 8, 12, 16, 32] {
            let p = prover(w);
            let wu = w as u64;
            let mut warps = Vec::new();
            for k in 0..wu {
                warps.push(AffineWarp::contiguous(k, w));
                warps.push(AffineWarp::column(k, w));
                warps.push(AffineWarp::diagonal(k, w));
                warps.push(AffineWarp::broadcast(k, wu - 1 - k, w));
            }
            for s in 1..=wu {
                for lanes in [1, w / 2, w] {
                    let last = s * (lanes.max(1) as u64 - 1);
                    if last < wu * wu {
                        warps.push(AffineWarp::flat_stride(s, 0, lanes));
                    }
                }
            }
            for warp in &warps {
                for scheme in Scheme::extended() {
                    let full = p.analyze(warp, scheme);
                    let lean = p.bounds(warp, scheme);
                    match (full, lean) {
                        (Ok(a), Ok(b)) => assert_eq!((a.lo, a.hi), b, "{warp} {scheme} w={w}"),
                        (Err(a), Err(b)) => assert_eq!(a, b),
                        (a, b) => panic!("{warp} {scheme} w={w}: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }
}
