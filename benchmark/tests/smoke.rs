//! End-to-end checks of the benchmark itself: every workload at smoke
//! sizes, the command line's contract, and the watchdog's exit path.

use std::process::Command;
use std::time::{Duration, Instant};

use teamsteal_benchmark::json::Json;
use teamsteal_benchmark::spec;
use teamsteal_benchmark::trace::Tracer;
use teamsteal_benchmark::watchdog::{Watchdog, EXIT_WEDGED};
use teamsteal_benchmark::workloads::{self, Params};

fn benchmark() -> Command {
    Command::new(env!("CARGO_BIN_EXE_teamsteal-benchmark"))
}

#[test]
fn smoke_run_of_all_five_workloads_is_quick_and_loses_nothing() {
    let start = Instant::now();
    let watchdog = Watchdog::start();
    for w in &spec::WORKLOADS {
        let m = workloads::run(
            w.name,
            &Params::smoke(7),
            &mut Tracer::new(false),
            &watchdog,
        )
        .expect("every workload in the table runs");
        assert!(m.correct, "{} was not correct", w.name);
        assert_eq!(m.failed, 0, "{}: failed_share must be 0", w.name);
        assert!(m.attempted > 0 && m.setup_s > 0.0, "{}", w.name);
        assert!(
            m.throughput_kops > 0.0 && m.latency_p50_us > 0.0,
            "{}",
            w.name
        );
        // Everything a workload reports per layer is a per-layer metric.
        for (name, value) in &m.layer {
            assert!(
                spec::PER_LAYER.iter().any(|metric| metric.name == *name),
                "{name}"
            );
            assert!(value.is_finite(), "{name} = {value}");
        }
    }
    assert!(workloads::run(
        "no_such_workload",
        &Params::smoke(7),
        &mut Tracer::new(false),
        &watchdog
    )
    .is_none());
    assert!(
        start.elapsed() < Duration::from_secs(15),
        "smoke took {:?}",
        start.elapsed()
    );
}

/// Runs the binary and returns `(exit code, last stdout line)`.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let output = benchmark()
        .args(args)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    (
        output.status.code(),
        stdout.lines().last().unwrap_or("").to_owned(),
    )
}

fn metric_names(result: &Json) -> Vec<String> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("a metrics object")
        .iter()
        .map(|(name, metric)| {
            assert!(
                metric.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no value"
            );
            assert!(
                metric.get("unit").and_then(Json::as_str).is_some(),
                "{name} has no unit"
            );
            name.clone()
        })
        .collect()
}

#[test]
fn the_last_line_is_the_contract_result() {
    let (code, line) = run(&[
        "--workload",
        "spawn_tree",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert_eq!(code, Some(0));
    let result = Json::parse(&line).expect("the last line is JSON");
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let expected: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(metric_names(&result), expected);
    for (name, metric) in result.get("metrics").unwrap().as_obj().unwrap() {
        assert!(
            metric.get("value").unwrap().as_f64().unwrap() > 0.0,
            "{name} must never be 0"
        );
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric_and_writes_the_trace() {
    let (code, line) = run(&[
        "--workload",
        "service_paced",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--smoke",
    ]);
    assert_eq!(code, Some(0));
    let result = Json::parse(&line).expect("the last line is JSON");
    let expected: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(metric_names(&result), expected);
    let value = |name: &str| {
        result
            .get("metrics")
            .unwrap()
            .get(name)
            .unwrap()
            .get("value")
            .unwrap()
            .as_f64()
            .unwrap()
    };
    // Each layer contains the one below it.
    assert!(value("service.tenant.submit_ns") >= value("core.concurrent_scope.submit_ns"));
    assert!(value("core.concurrent_scope.submit_ns") >= value("deque.sharded.push_pop_ns"));
    assert!(value("service.queue_wait_p50_us") > 0.0 && value("service.run_p50_us") > 0.0);
    let trace =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace-service_paced.json");
    let doc = Json::parse(&std::fs::read_to_string(trace).expect("the trace file exists"))
        .expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("trace events");
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Json::as_str) == Some("service.queue_wait")));
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "spawn_tree", "--seconds", "0"][..],
        &["--workload", "spawn_tree", "--trace", "2"][..],
        &["--workload", "spawn_tree", "--bogus", "1"][..],
        &["compare", "only-one.json"][..],
        &["repeat", "1"][..],
    ] {
        let (code, line) = run(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(line.is_empty(), "{args:?} printed {line}");
    }
}

#[test]
fn a_wedged_phase_ends_the_process_instead_of_hanging() {
    let start = Instant::now();
    let output = benchmark()
        .arg("wedge")
        .output()
        .expect("the benchmark binary starts");
    assert_eq!(output.status.code(), Some(EXIT_WEDGED));
    assert!(output.stdout.is_empty(), "no result line after a wedge");
    assert!(String::from_utf8_lossy(&output.stderr).contains("wedge-test"));
    assert!(start.elapsed() < Duration::from_secs(10));
}

#[test]
fn spec_subcommand_prints_benchmark_json() {
    let output = benchmark()
        .arg("spec")
        .output()
        .expect("the benchmark binary starts");
    assert_eq!(
        Json::parse(&String::from_utf8_lossy(&output.stdout)).unwrap(),
        spec::benchmark_json()
    );
}
