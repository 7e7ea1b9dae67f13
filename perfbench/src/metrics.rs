//! The benchmark's contract: workloads, metric names, units, directions
//! and regression bounds. `BENCHMARK.json` is rendered from these tables
//! (`perfbench manifest`), and a test keeps the committed file equal to
//! the rendering, so the two cannot drift.

use std::collections::BTreeMap;

/// A workload: name and why it is in the benchmark.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "mc-narrow",
        "Table II cells at w=32 through matrix_congestion on 1 and nproc threads: the fused permute-shift and bit-parallel path, core and access only",
    ),
    (
        "paper-tables",
        "Tables II (w=16..256), III and IV recomputed and checked against the paper: dominated by the unfused and sort-based w>=128 path",
    ),
    (
        "serve-mix",
        "open-loop mix of cheap reads and compute requests, some adaptive, to rap serve over loopback: transport, queue, handler and adapt monitor",
    ),
    (
        "cluster-sweep",
        "Table II cells at w=16/32/64 sharded by Cluster::run_sweep over nproc rap serve workers: lease, dispatch and merge coordination",
    ),
];

/// One metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, reported by every workload with tracing off. Each
/// workload defines its unit operation (see `NOTES.md`).
#[must_use]
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower", Some(0.25)),
        def("latency_ms", "ms", "lower", Some(0.25)),
        def("throughput_per_s", "1/s", "higher", Some(0.25)),
        def("peak_rss_mb", "MB", "lower", Some(0.2)),
    ]
}

/// Commands of the serve mix, in reporting order. `pattern_adaptive` is
/// `pattern` with `scheme:"adaptive"`.
pub const SERVE_CMDS: [&str; 7] = [
    "layout",
    "congestion",
    "pattern",
    "pattern_adaptive",
    "pattern_block",
    "transpose",
    "analyze",
];

/// Per-layer metrics, reported by every workload's traced run. Layer
/// micro-measurements come from the same fixed probe on every workload;
/// the attribution and counter metrics come from the workload itself and
/// read 0 where the workload does not exercise the layer.
#[must_use]
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = vec![
        def("core.compact_ns.w32", "ns", "lower", None),
        def("core.congestion_ns.w256", "ns", "lower", None),
        def("access.fused_warp_ns.w32", "ns", "lower", None),
        def("access.warp_ns.w256", "ns", "lower", None),
        def("access.block_us.w32", "us", "lower", None),
        def("access.block_us.w256", "us", "lower", None),
        def("access.array4d_trial_us", "us", "lower", None),
        def("access.mc_speedup", "x", "higher", None),
        def("transpose.run_us", "us", "lower", None),
        def("gpu-sim.simulate_us", "us", "lower", None),
    ];
    for cmd in SERVE_CMDS {
        v.push(def(&format!("serve.handler_us.{cmd}"), "us", "lower", None));
        v.push(def(
            &format!("serve.handler_p99_us.{cmd}"),
            "us",
            "lower",
            None,
        ));
    }
    for cmd in SERVE_CMDS.iter().filter(|c| **c != "pattern_block") {
        v.push(def(&format!("serve.rtt_us.{cmd}"), "us", "lower", None));
        v.push(def(
            &format!("serve.residual_us.{cmd}"),
            "us",
            "lower",
            None,
        ));
    }
    v.extend([
        def("op.p50_ms", "ms", "lower", None),
        def("op.p99_ms", "ms", "lower", None),
        def("adapt.overhead_us", "us", "lower", None),
        def("cluster.block_rtt_us", "us", "lower", None),
        def("failed_frac", "ratio", "lower", None),
        def("trace.overhead", "ratio", "lower", None),
        def("trace.unexplained_share", "ratio", "lower", None),
    ]);
    for layer in SELF_LAYERS {
        v.push(def(&format!("self_share.{layer}"), "ratio", "lower", None));
    }
    v.extend([
        def("engine.wide_share", "ratio", "lower", None),
        def("serve.requests", "count", "higher", None),
        def("serve.shed", "count", "lower", None),
        def("serve.timeouts", "count", "lower", None),
        def("serve.degraded", "count", "lower", None),
        def("serve.breaker_trips", "count", "lower", None),
        def("adapt.swaps", "count", "lower", None),
        def("adapt.rollbacks", "count", "lower", None),
        def("loadgen.late_p99_ms", "ms", "lower", None),
        def("cluster.efficiency", "ratio", "higher", None),
        def("cluster.redispatched", "count", "lower", None),
        def("cluster.hedged", "count", "lower", None),
        def("cluster.useful_ratio", "ratio", "higher", None),
    ]);
    v
}

/// Span layers whose self time is reported as a share of the traced
/// wall time (`self_share.<layer>`), with the span names mapped to each.
pub const SELF_LAYERS: [&str; 7] = [
    "access",
    "t2_narrow",
    "t2_wide",
    "t3",
    "t4",
    "serve_client",
    "cluster",
];

/// Render `BENCHMARK.json`.
#[must_use]
pub fn manifest() -> String {
    let metric = |m: &MetricDef| {
        let mut s = format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        );
        if let Some(b) = m.bound {
            s.push_str(&format!(", \"bound\": {b}"));
        }
        s.push('}');
        s
    };
    let list = |defs: Vec<MetricDef>| defs.iter().map(metric).collect::<Vec<_>>().join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|(n, w)| format!("    {{\"name\": \"{n}\", \"why\": \"{w}\"}}"))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        RUN_SECONDS,
        list(end_to_end()),
        list(per_layer())
    )
}

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// The outcome of one run: correctness tallies and metric values.
#[derive(Debug, Default, Clone)]
pub struct RunResult {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, including correctness mismatches.
    pub failed: u64,
    /// Messages describing each failure (first few are printed).
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl RunResult {
    /// Set a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Record one failed operation.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        self.failures.push(message.into());
    }

    /// The final result line: every metric of `defs`, in order, with its
    /// unit.
    ///
    /// # Errors
    /// A metric of `defs` the run did not produce, or a non-finite value.
    pub fn to_line(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(defs.len());
        for d in defs {
            let v = *self
                .values
                .get(&d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite: {v}", d.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_tables() {
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `perfbench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|m| m.name)
            .collect();
        names.extend(WORKLOADS.iter().map(|(n, _)| (*n).to_string()));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate names");
        for name in &names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        assert!(per_layer().len() <= 128);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }

    #[test]
    fn result_line_needs_every_metric() {
        let defs = vec![def("a", "s", "lower", Some(0.1))];
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        assert!(r.to_line(&defs).is_err());
        r.set("a", 1.5);
        assert_eq!(
            r.to_line(&defs).expect("line"),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
