//! Small helpers shared by every workload: order statistics and
//! command-line parsing.

use std::time::Duration;

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample; 0 for
/// an empty sample. With fewer than `100 / (100 - p)` samples the
/// nearest-rank p-th percentile is the maximum.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (50th nearest-rank percentile).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile of a time-ordered sample, taken per window and
/// summarised by the median across windows: a burst of interference that
/// hits a few windows does not move it. Windows hold at least 200
/// samples (at most 10 windows); a sample shorter than that is one
/// window.
#[must_use]
pub fn windowed_percentile(values: &[f64], p: f64) -> f64 {
    let windows = (values.len() / 200).clamp(1, 10);
    let size = values.len().div_ceil(windows).max(1);
    let per: Vec<f64> = values.chunks(size).map(|w| percentile(w, p)).collect();
    median(&per)
}

/// Seconds of a duration in milliseconds.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `--key value` command-line options.
#[derive(Debug, Default, Clone)]
pub struct Args {
    pairs: Vec<(String, String)>,
    /// Positional words (the subcommand).
    pub positional: Vec<String>,
}

impl Args {
    /// Parse `--key value` pairs and bare words.
    ///
    /// # Errors
    /// A `--key` with no value after it.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                out.pairs.push((key.to_string(), value));
            } else {
                out.positional.push(arg);
            }
        }
        Ok(out)
    }

    /// The raw value of `--key`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `--key` parsed as an unsigned integer.
    ///
    /// # Errors
    /// A missing value without a default, or an unparseable one.
    pub fn u64(&self, key: &str, default: Option<u64>) -> Result<u64, String> {
        match self.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} must be a non-negative integer, got '{v}'")),
            None => default.ok_or_else(|| format!("missing required option --{key}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 99.0), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windowed_percentile_ignores_a_burst_in_one_window() {
        let mut v = vec![1.0; 2000];
        for x in &mut v[..100] {
            *x = 50.0;
        }
        assert_eq!(percentile(&v, 99.0), 50.0);
        assert_eq!(windowed_percentile(&v, 99.0), 1.0);
        assert_eq!(windowed_percentile(&[3.0, 1.0, 2.0], 99.0), 3.0);
    }
}
