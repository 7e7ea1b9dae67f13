//! Tiny-size runs of every workload against in-process servers: each must
//! pass its own correctness checks and print every named metric with its
//! unit, untraced (end-to-end metrics) and traced (per-layer metrics).

use perfbench::machine::Machine;
use perfbench::metrics::{end_to_end, per_layer, MetricDef, WORKLOADS};
use perfbench::server::Launcher;
use perfbench::workloads::{Ctx, Scale};
use std::path::PathBuf;
use std::sync::Mutex;

/// Workloads time themselves; run them one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn ctx(seed: u64) -> Ctx {
    Ctx {
        seed,
        scale: Scale::Tiny,
        launcher: Launcher::InProcess,
        machine: Machine::detect(),
        root: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/..")),
    }
}

fn assert_prints_every_metric(workload: &str, trace: bool, defs: &[MetricDef]) {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (result, tracer) = perfbench::run(&ctx(7), workload, 1.0, trace).expect("run completes");
    assert_eq!(result.failed, 0, "{workload}: {:?}", result.failures);
    assert!(result.attempted > 0, "{workload} attempted nothing");
    let line = result.to_line(defs).expect("every metric measured");
    assert!(line.starts_with("{\"correct\": true,"), "{line}");
    for d in defs {
        let entry = format!("\"{}\": {{\"value\": ", d.name);
        assert!(
            line.contains(&entry),
            "{workload}: {} missing from {line}",
            d.name
        );
        assert!(line.contains(&format!("\"unit\": \"{}\"", d.unit)));
    }
    assert_eq!(tracer.enabled(), trace);
    if trace {
        assert!(
            tracer.spans().iter().any(|s| s.name == "op"),
            "{workload} traced no operation"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for (workload, _) in WORKLOADS {
        assert_prints_every_metric(workload, false, &end_to_end());
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for (workload, _) in WORKLOADS {
        assert_prints_every_metric(workload, true, &per_layer());
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(perfbench::run(&ctx(1), "nope", 1.0, false).is_err());
}
