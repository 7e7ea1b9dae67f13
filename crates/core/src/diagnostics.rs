//! Human-readable layout and congestion diagnostics.
//!
//! The paper explains RAP with pictures (Figure 6: the physical
//! arrangement after the permute-shift; Figure 2: per-bank loads). These
//! renderers produce the same views as text, for docs, examples, and
//! debugging: [`render_layout`] shows which logical element sits in each
//! physical slot, and [`render_bank_loads`] draws a per-bank load bar
//! for one warp access.

use crate::congestion::BankLoads;
use crate::mapping::MatrixMapping;

/// Render the physical arrangement of a `w × w` matrix under `mapping`:
/// one line per physical row, each column being a bank, showing the
/// *logical* element index (`i·w + j`) stored there — the paper's
/// Figure 6 as text. Padded layouts occupy more than `w²` words; slots
/// holding no logical element (the padding) render as `·`.
///
/// # Panics
/// Panics if the mapping is not injective over the matrix (would
/// indicate a broken implementation).
#[must_use]
pub fn render_layout(mapping: &dyn MatrixMapping) -> String {
    let w = mapping.width() as u32;
    // Ceil to whole rendered rows: padded layouts may not fill the last.
    let storage = mapping.storage_words();
    let rows = storage.div_ceil(w as usize) as u32;
    let mut physical: Vec<Option<u32>> = vec![None; (rows * w) as usize];
    for i in 0..w {
        for j in 0..w {
            let a = mapping.address(i, j) as usize;
            assert!(
                physical[a].is_none(),
                "mapping is not injective at address {a}"
            );
            physical[a] = Some(i * w + j);
        }
    }
    let cells = (w * w) as usize;
    let width = ((cells.max(2) - 1) as f64).log10() as usize + 1;
    // A title, then a header and `rows` lines of `w` cells of
    // `width + 2` bytes each plus the row label: reserve it all once.
    let mut out = format!("{} layout, w = {w}:\n", mapping.scheme()).into_bytes();
    out.reserve((rows as usize + 1) * (w as usize * (width + 2) + 16));
    // Every cell is `width + 2` bytes: no index or bank has more digits
    // than `w² − 1`. Lay a row out in spaces, then write into it.
    let cell = width + 2;
    out.extend_from_slice(b"      ");
    let start = out.len();
    out.resize(start + w as usize * cell, b' ');
    for b in 0..w {
        // ` B{b:<width$}`
        let at = start + b as usize * cell;
        out[at + 1] = b'B';
        let digits = decimal_digits(b);
        write_digits(&mut out[at + 2..at + 2 + digits], b);
    }
    out.push(b'\n');
    for row in 0..rows {
        // `row {row:>2}`
        out.extend_from_slice(b"row ");
        let digits = decimal_digits(row);
        out.resize(out.len() + 2usize.saturating_sub(digits), b' ');
        let at = out.len();
        out.resize(at + digits, b' ');
        write_digits(&mut out[at..], row);
        // ` {v:>width$} `, or ` {"·":>width$} ` for a padding slot, whose
        // `·` is two bytes.
        let slots = &physical[(row * w) as usize..((row + 1) * w) as usize];
        let mut at = out.len();
        out.resize(
            at + slots.len() * cell + slots.iter().filter(|v| v.is_none()).count(),
            b' ',
        );
        for slot in slots {
            match *slot {
                Some(v) => {
                    let end = at + 1 + width;
                    write_digits(&mut out[end - decimal_digits(v)..end], v);
                    at += cell;
                }
                None => {
                    out[at + width..at + width + 2].copy_from_slice("·".as_bytes());
                    at += cell + 1;
                }
            }
        }
        out.push(b'\n');
    }
    String::from_utf8(out).expect("the layout is ASCII but for `·`")
}

/// Number of decimal digits of `v`.
fn decimal_digits(v: u32) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Write the decimal digits of `v` into `out`, which is exactly as long.
fn write_digits(out: &mut [u8], mut v: u32) {
    for digit in out.iter_mut().rev() {
        *digit = b'0' + (v % 10) as u8;
        v /= 10;
    }
}

/// Render the per-bank unique-request loads of one warp access as a bar
/// chart (the view of the paper's Figure 2).
#[must_use]
pub fn render_bank_loads(loads: &BankLoads) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "congestion {} over {} banks ({} unique requests)\n",
        loads.congestion(),
        loads.width(),
        loads.unique_requests()
    ));
    for (bank, &load) in loads.loads().iter().enumerate() {
        out.push_str(&format!(
            "bank {bank:>3} | {:<width$} {load}\n",
            "#".repeat(load as usize),
            width = loads.congestion() as usize
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::RowShift;
    use crate::permutation::Permutation;

    #[test]
    fn raw_layout_is_sequential() {
        let s = render_layout(&RowShift::raw(4));
        // Physical row 0 holds logical 0..3 in order under RAW.
        let row0 = s.lines().nth(2).unwrap();
        assert!(row0.contains("row  0"));
        let nums: Vec<&str> = row0.split_whitespace().skip(2).collect();
        assert_eq!(nums, vec!["0", "1", "2", "3"]);
    }

    #[test]
    fn figure6_layout_renders_rotations() {
        // Paper Figure 6: σ = (2, 0, 3, 1) → physical row 0 holds logical
        // (2 3 0 1) — logical column (c − 2) mod 4 at physical column c.
        let sigma = Permutation::from_table(vec![2, 0, 3, 1]).unwrap();
        let s = render_layout(&RowShift::rap_from(sigma));
        let row0 = s.lines().nth(2).unwrap();
        let nums: Vec<&str> = row0.split_whitespace().skip(2).collect();
        assert_eq!(nums, vec!["2", "3", "0", "1"]);
    }

    #[test]
    fn bank_loads_render() {
        let loads = BankLoads::analyze(4, &[0, 4, 8, 1]);
        let s = render_bank_loads(&loads);
        assert!(s.contains("congestion 3"));
        assert!(s.contains("bank   0 | ###"));
        assert!(s.contains("bank   2 |"));
    }

    #[test]
    fn padded_layout_renders_padding_slots() {
        use crate::modern::build_mapping;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let mapping = build_mapping(crate::Scheme::Padded, &mut rng, 4);
        let s = render_layout(mapping.as_ref());
        assert!(s.contains("·"), "padding slots render as dots:\n{s}");
        // Every logical element still appears exactly once.
        for v in 0..16 {
            assert!(
                s.split_whitespace().any(|t| t == v.to_string()),
                "missing element {v}:\n{s}"
            );
        }
    }

    #[test]
    fn layout_works_for_nontrivial_widths() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let s = render_layout(&RowShift::rap(&mut rng, 32));
        assert_eq!(s.lines().count(), 2 + 32);
    }

    /// The direct renderer emits the same bytes as the `write!` renderer it
    /// replaced, kept here verbatim as the reference: every scheme, every
    /// digit-width step and Padded's `·` slots.
    #[test]
    fn layout_matches_the_write_renderer() {
        use crate::modern::{Padded, XorSwizzle};
        use crate::Scheme;
        use rand::SeedableRng;
        use std::fmt::Write as _;

        fn reference(mapping: &dyn MatrixMapping) -> String {
            let w = mapping.width() as u32;
            // Ceil to whole rendered rows: padded layouts may not fill the last.
            let storage = mapping.storage_words();
            let rows = storage.div_ceil(w as usize) as u32;
            let mut physical: Vec<Option<u32>> = vec![None; (rows * w) as usize];
            for i in 0..w {
                for j in 0..w {
                    let a = mapping.address(i, j) as usize;
                    assert!(
                        physical[a].is_none(),
                        "mapping is not injective at address {a}"
                    );
                    physical[a] = Some(i * w + j);
                }
            }
            let cells = (w * w) as usize;
            let width = ((cells.max(2) - 1) as f64).log10() as usize + 1;
            // A title, then a header and `rows` lines of `w` cells of
            // `width + 2` bytes each plus the row label: reserve it all once.
            let mut out =
                String::with_capacity(32 + (rows as usize + 1) * (w as usize * (width + 2) + 16));
            // Writing into a `String` cannot fail.
            let _ = writeln!(out, "{} layout, w = {w}:", mapping.scheme());
            out.push_str("      ");
            for b in 0..w {
                let _ = write!(out, " B{b:<width$}");
            }
            out.push('\n');
            for row in 0..rows {
                let _ = write!(out, "row {row:>2}");
                for col in 0..w {
                    let _ = match physical[(row * w + col) as usize] {
                        Some(v) => write!(out, " {v:>width$} "),
                        None => write!(out, " {:>width$} ", "·"),
                    };
                }
                out.push('\n');
            }
            out
        }

        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        for w in (1..=40).chain([99, 100, 101, 255, 256, 512]) {
            let mut mappings: Vec<Box<dyn MatrixMapping>> = [Scheme::Raw, Scheme::Ras, Scheme::Rap]
                .into_iter()
                .map(|s| Box::new(RowShift::of_scheme(s, &mut rng, w)) as Box<dyn MatrixMapping>)
                .collect();
            mappings.push(Box::new(Padded::new(w).unwrap()));
            if let Ok(xor) = XorSwizzle::new(w) {
                mappings.push(Box::new(xor));
            }
            for mapping in &mappings {
                assert_eq!(
                    render_layout(mapping.as_ref()),
                    reference(mapping.as_ref()),
                    "{} at w = {w}",
                    mapping.scheme()
                );
            }
        }
    }
}
