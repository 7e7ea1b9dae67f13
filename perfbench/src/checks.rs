//! Correctness checks. Every workload's outputs pass through one of
//! these; a mismatch is counted as a failed operation and makes the
//! benchmark exit non-zero.

use rap_cluster::ClusterReport;
use rap_serve::Response;
use rap_stats::{ExperimentRecord, OnlineStats};
use serde::Value;

/// FNV-1a over the raw bits of every accumulator: equal checksums mean
/// bit-identical statistics (counts, means, second moments, extremes).
#[must_use]
pub fn stats_checksum(stats: &[OnlineStats]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in stats {
        let r = s.to_raw();
        for word in [r.count, r.mean_bits, r.m2_bits, r.min_bits, r.max_bits] {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Monte-Carlo engine: a timed sweep must reproduce the single-thread
/// reference of the same seed bit for bit.
///
/// # Errors
/// The two checksums when they differ.
pub fn check_checksum(what: &str, reference: u64, got: u64) -> Result<(), String> {
    if reference == got {
        Ok(())
    } else {
        Err(format!(
            "{what}: checksum {got:#018x} != reference {reference:#018x}"
        ))
    }
}

/// Per-table relative-error bands, read from `results/REPORT.md`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bands {
    /// Table II worst relative error.
    pub t2: f64,
    /// Table III worst relative error.
    pub t3: f64,
    /// Table IV worst relative error.
    pub t4: f64,
}

impl Bands {
    /// Parse the `| T2 | … | 1.38% |` rows of the consolidated report.
    ///
    /// # Errors
    /// A missing or malformed row.
    pub fn parse(report: &str) -> Result<Self, String> {
        let band = |id: &str| -> Result<f64, String> {
            let row = report
                .lines()
                .find(|l| l.trim_start().starts_with(&format!("| {id} |")))
                .ok_or_else(|| format!("REPORT.md has no {id} row"))?;
            let cell = row
                .trim()
                .trim_end_matches('|')
                .rsplit('|')
                .next()
                .unwrap_or("")
                .trim();
            cell.strip_suffix('%')
                .and_then(|v| v.trim().parse::<f64>().ok())
                .map(|pct| pct / 100.0)
                .ok_or_else(|| format!("REPORT.md {id} band '{cell}' is not a percentage"))
        };
        Ok(Bands {
            t2: band("T2")?,
            t3: band("T3")?,
            t4: band("T4")?,
        })
    }
}

/// How many of a Table II cell's samples are copies of one draw: its
/// standard error must be inflated by the square root of this.
///
/// A Table II trial draws one row-shift mapping and samples all `w`
/// warps under it. Stride warp `c` reads column `c` and Diagonal warp
/// `d` reads `(i, i + d)`, so under a row shift every warp's bank set is
/// a rotation of warp 0's and all `w` samples of a trial are equal (or
/// the cell is deterministic). Random warps draw their own uniform
/// coordinates, whose banks are uniform whatever the mapping, so they
/// are independent; Contiguous is deterministic under every scheme.
#[must_use]
pub fn table2_copies(cell: &rap_stats::CellSummary) -> f64 {
    match cell.row.as_str() {
        "Stride" | "Diagonal" => cell
            .column
            .rsplit("w=")
            .next()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(1.0),
        _ => 1.0,
    }
}

/// Check every cell of a paper-table record against its paper value.
///
/// A deterministic congestion cell (all samples equal) must match the
/// paper exactly. Every other cell must sit within `band` relative
/// error of the paper value, widened by four of its own standard errors
/// (the committed band was measured at one seed and more trials; another
/// seed adds its own sampling error). Samples that share a trial's random
/// mapping may be correlated: `copies(cell)` is the number of samples per
/// independent draw (see [`table2_copies`]), and the standard error is
/// inflated by its square root. Simulated-time cells (`… time ns`) come
/// from a deterministic timing model calibrated to the paper, so they are
/// banded, never exact. Returns one message per failing cell.
#[must_use]
pub fn check_record(
    record: &ExperimentRecord,
    band: f64,
    copies: impl Fn(&rap_stats::CellSummary) -> f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for c in &record.cells {
        let Some(paper) = c.paper else { continue };
        let se = c.std_error.unwrap_or(0.0) * copies(c).max(1.0).sqrt();
        let deterministic = se == 0.0 && !c.row.ends_with("time ns");
        let ok = if deterministic {
            c.measured == paper
        } else {
            (c.measured - paper).abs() <= band * paper.abs() + 4.0 * se
        };
        if !ok {
            failures.push(format!(
                "{} {}/{}: measured {} vs paper {paper} (band {:.2}%, se {se:.4}{})",
                record.id,
                c.row,
                c.column,
                c.measured,
                band * 100.0,
                if deterministic { ", must be exact" } else { "" }
            ));
        }
    }
    failures
}

/// The response line the server writes for request `id` when it answers
/// with `data`, minus the leading `{"id":<id>` — what [`check_line`]
/// compares against. Payloads come from `handler::execute` run
/// in-process on the same request.
#[must_use]
pub fn expected_suffix(data: Value) -> String {
    let line = Response::ok(Some(0), "closed", data).to_line();
    line.trim_end()
        .strip_prefix("{\"id\":0")
        .expect("responses serialize their id first")
        .to_string()
}

/// A served response line for request `id` must read `ok` and not
/// degraded, and for a deterministic request (`expected` given, see
/// [`expected_suffix`]) must be byte-identical to the in-process result.
///
/// # Errors
/// A refused, degraded or differing response.
pub fn check_line(expected: Option<&str>, id: u64, line: &str) -> Result<(), String> {
    if !crate::loadgen::is_success(line) {
        return Err(match Response::parse(line) {
            Ok(r) if r.degraded => "degraded response".to_string(),
            Ok(r) => format!("not ok: {:?}", r.error),
            Err(e) => format!("unreadable response: {e}"),
        });
    }
    match expected {
        Some(suffix) if line.strip_prefix(&format!("{{\"id\":{id}")) != Some(suffix) => Err(
            format!("payload differs from the in-process handler result: got {line}"),
        ),
        _ => Ok(()),
    }
}

/// A sharded sweep must merge to statistics bit-identical to the
/// in-process sweep, with no block run in-process.
///
/// # Errors
/// The first differing cell, or a degraded report.
pub fn check_merge(
    reference: &[OnlineStats],
    merged: &[OnlineStats],
    report: &ClusterReport,
) -> Result<(), String> {
    if report.degraded || report.local_blocks > 0 {
        return Err(format!(
            "sweep degraded (source {}, {} blocks in-process)",
            report.source, report.local_blocks
        ));
    }
    if reference.len() != merged.len() {
        return Err(format!(
            "{} merged cells for {} reference cells",
            merged.len(),
            reference.len()
        ));
    }
    for (i, (r, m)) in reference.iter().zip(merged).enumerate() {
        if r.to_raw() != m.to_raw() {
            return Err(format!("cell {i}: merged {m:?} != in-process {r:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_stats::CellSummary;

    fn stats(values: &[f64]) -> OnlineStats {
        let mut s = OnlineStats::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn corrupted_checksum_fails() {
        let cells = vec![stats(&[1.0, 2.0]), stats(&[3.0])];
        let reference = stats_checksum(&cells);
        assert!(check_checksum("mc", reference, stats_checksum(&cells)).is_ok());
        let mut corrupted = cells.clone();
        corrupted[1].push(3.0);
        assert!(check_checksum("mc", reference, stats_checksum(&corrupted)).is_err());
        assert!(check_checksum("mc", reference, reference ^ 1).is_err());
    }

    #[test]
    fn bands_parse_from_the_report_table() {
        let report = "| id | d | cells | ref | worst |\n|---|---|---|---|---|\n\
                      | T2 | x | 60 | 60 | 1.38% |\n| T3 | y | 27 | 27 | 11.51% |\n\
                      | T4 | z | 42 | 42 | 6.12% |\n";
        let b = Bands::parse(report).expect("parses");
        assert!((b.t2 - 0.0138).abs() < 1e-12 && (b.t3 - 0.1151).abs() < 1e-12);
        assert!(Bands::parse("| T2 | x | – |").is_err());
    }

    #[test]
    fn record_cells_outside_their_band_fail() {
        let mut record = ExperimentRecord::new("T2", "t", "p");
        record.push(CellSummary::from_stats(
            "Stride",
            "RAW w=32",
            &stats(&[32.0, 32.0]),
            Some(32.0),
        ));
        record.push(CellSummary::from_stats(
            "Random",
            "RAP w=32",
            &stats(&[3.0, 4.0]),
            Some(3.5),
        ));
        assert!(check_record(&record, 0.01, |_| 1.0).is_empty());
        // A deterministic cell off by one ulp fails.
        let mut corrupted = record.clone();
        corrupted.cells[0].measured = f64::from_bits(32.0f64.to_bits() + 1);
        assert_eq!(check_record(&corrupted, 0.01, |_| 1.0).len(), 1);
        // A stochastic cell beyond band + 4 standard errors fails.
        let mut corrupted = record.clone();
        corrupted.cells[1].measured = 3.5 + 0.035 + 4.0 * 0.5 + 0.01;
        assert_eq!(check_record(&corrupted, 0.01, |_| 1.0).len(), 1);
    }

    #[test]
    fn a_three_percent_shift_on_a_wide_random_cell_fails() {
        // A w = 256 Random cell at the sweep's 100-trial floor: 25 600
        // independent samples, standard deviation 0.5.
        let samples: Vec<f64> = (0..25_600).map(|i| 5.0 + f64::from(i % 2)).collect();
        let mut record = ExperimentRecord::new("T2", "t", "p");
        record.push(CellSummary::from_stats(
            "Random",
            "RAP w=256",
            &stats(&samples),
            Some(5.5),
        ));
        assert_eq!(table2_copies(&record.cells[0]), 1.0);
        assert!(check_record(&record, 0.0138, table2_copies).is_empty());
        let mut shifted = record.clone();
        shifted.cells[0].measured = 5.5 * 1.03;
        assert_eq!(check_record(&shifted, 0.0138, table2_copies).len(), 1);
        // The same shift on a Stride cell, whose 256 warps per trial are
        // copies of one draw, is within four of its standard errors.
        let mut stride = shifted.clone();
        stride.cells[0].row = "Stride".to_string();
        stride.cells[0].column = "RAS w=256".to_string();
        assert_eq!(table2_copies(&stride.cells[0]), 256.0);
        assert!(check_record(&stride, 0.0138, table2_copies).is_empty());
    }

    #[test]
    fn corrupted_response_fails() {
        let want = expected_suffix(Value::U64(3));
        let line = |r: Response| r.to_line().trim_end().to_string();
        let good = line(Response::ok(Some(7), "closed", Value::U64(3)));
        assert!(check_line(Some(&want), 7, &good).is_ok());
        assert!(check_line(None, 7, &good).is_ok());
        assert!(
            check_line(Some(&want), 8, &good).is_err(),
            "answer to another request"
        );
        let wrong = line(Response::ok(Some(7), "closed", Value::U64(4)));
        assert!(check_line(Some(&want), 7, &wrong).is_err());
        let degraded = line(Response::degraded(Some(7), "open", Value::U64(3)));
        assert!(check_line(None, 7, &degraded).is_err());
        let refused = line(Response::error(
            Some(7),
            "closed",
            rap_serve::ErrorKind::Shed,
            "full",
        ));
        assert!(check_line(None, 7, &refused).is_err());
    }

    #[test]
    fn corrupted_merged_block_fails() {
        let reference = vec![stats(&[1.0, 2.0, 3.0]), stats(&[4.0])];
        let report = ClusterReport::default();
        assert!(check_merge(&reference, &reference, &report).is_ok());
        let mut merged = reference.clone();
        merged[0].merge(&stats(&[2.0]));
        assert!(check_merge(&reference, &merged, &report).is_err());
        let degraded = ClusterReport {
            degraded: true,
            ..ClusterReport::default()
        };
        assert!(check_merge(&reference, &reference, &degraded).is_err());
    }
}
