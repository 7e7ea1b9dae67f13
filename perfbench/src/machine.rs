//! The machine and build record attached to every result, and peak-RSS
//! readings of the processes under test.

use std::fmt::Write as _;

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Logical CPUs (SMT threads count separately).
    pub logical_cpus: usize,
    /// Physical cores.
    pub physical_cpus: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain that built the benchmark.
    pub rustc: String,
    /// Target features the measured code was compiled with.
    pub target_features: String,
    /// Source revision, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Machine {
    /// Detect the host; the toolchain and revision come from the
    /// `PERFBENCH_RUSTC` / `PERFBENCH_COMMIT` environment the launcher
    /// script sets.
    #[must_use]
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let mut features = Vec::new();
        if cfg!(target_feature = "popcnt") {
            features.push("popcnt");
        }
        if cfg!(target_feature = "bmi2") {
            features.push("bmi2");
        }
        if cfg!(target_feature = "avx2") {
            features.push("avx2");
        }
        if cfg!(target_feature = "fma") {
            features.push("fma");
        }
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
        Machine {
            logical_cpus: rap_bench::perf::logical_cpus(),
            physical_cpus: rap_bench::perf::physical_cpus(),
            cpu_model,
            rustc: env("PERFBENCH_RUSTC"),
            target_features: if features.is_empty() {
                "baseline".to_string()
            } else {
                features.join(",")
            },
            commit: env("PERFBENCH_COMMIT"),
        }
    }

    /// Threads (and connections) a workload may use: `nproc`.
    #[must_use]
    pub fn nproc(&self) -> usize {
        self.logical_cpus.max(1)
    }

    /// True when `threads` exceeds the physical cores, so a parallel
    /// figure measured with it is timesharing, not scaling.
    #[must_use]
    pub fn oversubscribed(&self, threads: usize) -> bool {
        threads > self.physical_cpus
    }

    /// The record as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"logical_cpus\":{},\"physical_cpus\":{},\"nproc_oversubscribed\":{},\
             \"cpu_model\":{:?},\"rustc\":{:?},\"target_features\":{:?},\"commit\":{:?}}}",
            self.logical_cpus,
            self.physical_cpus,
            self.oversubscribed(self.nproc()),
            self.cpu_model,
            self.rustc,
            self.target_features,
            self.commit
        );
        out
    }
}

/// Host speed reference: ns per step of a fixed integer loop that uses
/// none of the code under test (median of 5 timings). The host's cores
/// are shared with other tenants and its speed shifts between regimes;
/// this figure, printed with every result, tells such a shift apart from
/// a change in the program.
#[must_use]
pub fn host_reference_ns() -> f64 {
    const STEPS: u64 = 1 << 20;
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..STEPS {
                x = (x ^ (x >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            }
            std::hint::black_box(x);
            start.elapsed().as_nanos() as f64 / STEPS as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

/// Peak resident set (`VmHWM`) of process `pid` (`None` = this process),
/// in MB.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
