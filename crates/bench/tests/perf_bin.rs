//! Integration tests for the `perf` bin: the harness itself must never rot.
//!
//! The bin is run at `--smoke` scale (tiny inputs, 2 repetitions) through
//! the path CI uses, and its output files are parsed back through the
//! report layer.  A doctored baseline with absurdly fast times verifies the
//! `--check` regression gate actually fails.

use std::path::{Path, PathBuf};
use std::process::Command;

use teamsteal_bench::report::Report;

/// A fresh scratch directory under the target dir (no tempfile crate in the
/// offline build); unique per test to keep them independent.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perf-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_perf(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("perf bin runs")
}

/// The scenario names the bin lists in its `--only` error text (which it
/// derives from its `Scenario` table).
fn listed_scenarios() -> Vec<String> {
    let out = run_perf(&["--only", "no-such-family"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        stderr.contains("unknown sweep family 'no-such-family'"),
        "{stderr}"
    );
    let list = stderr
        .split("expected one of: ")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .unwrap_or_else(|| panic!("no scenario list in `{stderr}`"));
    list.split(", ").map(str::to_string).collect()
}

#[test]
fn scenario_table_only_flag_and_committed_baselines_name_the_same_families() {
    let mut listed = listed_scenarios();
    assert_eq!(listed.len(), 8, "{listed:?}");
    // `--only` accepts exactly the listed names (`--help` exits 0 once the
    // arguments before it parsed), and the help text shows the same list.
    for name in &listed {
        let out = run_perf(&["--only", name, "--help"]);
        assert_eq!(out.status.code(), Some(0), "--only {name} rejected");
        assert!(String::from_utf8_lossy(&out.stdout).contains(&listed.join(", ")));
    }
    assert_eq!(
        run_perf(&["--only", "micro", "--help"]).status.code(),
        Some(2)
    );
    assert_eq!(
        run_perf(&["--only", "service_latency", "--help"])
            .status
            .code(),
        Some(2)
    );

    // The committed baselines hold records of every listed family and of no
    // other: `sort` in BENCH_sort.json, the rest in BENCH_kernels.json.  And
    // what `perf` would write for a report it read is the file, byte for
    // byte: schema, key order and number formatting in one assertion.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let groups = |file: &str| {
        let text = std::fs::read_to_string(root.join(file)).expect(file);
        let report = Report::from_json_str(&text).expect(file);
        assert!(
            report.to_json_string() == text,
            "{file} does not reprint as committed"
        );
        let mut groups: Vec<String> = report.records.into_iter().map(|r| r.group).collect();
        groups.sort();
        groups.dedup();
        groups
    };
    assert_eq!(groups("BENCH_sort.json"), ["sort"]);
    listed.retain(|name| name != "sort");
    listed.sort();
    assert_eq!(groups("BENCH_kernels.json"), listed);
}

#[test]
fn smoke_run_writes_complete_parseable_reports() {
    let dir = scratch_dir("smoke");
    let out = run_perf(&["--smoke", "--out-dir", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "perf --smoke failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let sort_text = std::fs::read_to_string(dir.join("BENCH_sort.json")).expect("sort report");
    let sort = Report::from_json_str(&sort_text).expect("sort report parses");
    assert_eq!(sort.group, "sort");
    // Every requested scenario must be present: 4 distributions for each of
    // the 4 tracked variants (plus the Seq/STL reference).
    for name in ["Seq/STL", "SeqQS", "Fork", "Randfork", "MMPar"] {
        for dist in ["Random", "Gauss", "Buckets", "Staggered"] {
            assert!(
                sort.records
                    .iter()
                    .any(|r| r.name == name && r.distribution.as_deref() == Some(dist)),
                "missing sort record {name}/{dist}"
            );
        }
    }
    for record in &sort.records {
        assert_eq!(record.secs.samples_s.len(), record.repetitions);
        assert!(
            record.secs.median_s > 0.0,
            "{} has zero median",
            record.name
        );
        // Parallel variants carry a speedup against the Seq/STL reference,
        // unless this host has fewer cores than the cell has threads.
        // MMPar also carries Fork's median over its own, both taken from the
        // same interleaved repetitions.
        if record.name == "MMPar" {
            assert_eq!(
                record.speedup_vs_seq.is_some(),
                !sort.oversubscribed(record)
            );
            let fork = sort.records.iter().find(|r| {
                r.name == "Fork"
                    && r.distribution == record.distribution
                    && r.threads == record.threads
            });
            let expected =
                fork.expect("a Fork record per MMPar cell").secs.median_s / record.secs.median_s;
            let ratio = record.extra.as_ref().and_then(|e| e.get("mmpar_vs_fork"));
            let ratio = ratio
                .and_then(|v| v.as_f64())
                .expect("MMPar record has mmpar_vs_fork");
            assert!(
                (ratio - expected).abs() <= 1e-9 * expected,
                "{ratio} vs {expected}"
            );
        }
    }
    // The scheduler-backed variants must carry scheduler metrics; the
    // sequential ones must not.
    let spawned: u64 = sort
        .records
        .iter()
        .filter(|r| matches!(r.name.as_str(), "Fork" | "Randfork" | "MMPar"))
        .map(|r| r.metrics.tasks_spawned)
        .sum();
    assert!(spawned > 0, "parallel sort records carry no metrics");
    for record in sort.records.iter().filter(|r| r.name == "Seq/STL") {
        assert_eq!(record.metrics.total_executions(), 0);
    }

    let kernel_text =
        std::fs::read_to_string(dir.join("BENCH_kernels.json")).expect("kernel report");
    let kernels = Report::from_json_str(&kernel_text).expect("kernel report parses");
    assert_eq!(kernels.group, "kernel");
    for name in ["reduce", "scan", "matmul", "bfs", "histogram"] {
        let record = kernels
            .records
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("missing kernel record {name}"));
        assert!(record.secs.median_s > 0.0);
        assert!(record.seq_reference_s.is_some());
        assert_eq!(
            record.speedup_vs_seq.is_some(),
            !kernels.oversubscribed(record)
        );
    }

    // Every family of the table wrote records (idle_burn is skipped only on
    // platforms without a process-CPU clock; CI and the recording machine
    // are Linux).
    for family in listed_scenarios().iter().filter(|f| *f != "sort") {
        assert!(
            kernels.records.iter().any(|r| &r.group == family) || !cfg!(target_os = "linux"),
            "no `{family}` record"
        );
    }

    // The soak scenario carries the memory-footprint gauges in `extra` and
    // its reclamation counters in the ordinary metrics block.
    let soak = kernels
        .records
        .iter()
        .find(|r| r.group == "soak" && r.name == "soak")
        .expect("missing soak record");
    assert!(soak.secs.median_s > 0.0);
    let extra = soak.extra.as_ref().expect("soak record has extra gauges");
    for gauge in [
        "peak_injector_segments",
        "final_injector_segments",
        "peak_deferred_items",
    ] {
        assert!(
            extra.get(gauge).and_then(|v| v.as_f64()).is_some(),
            "soak extra missing {gauge}"
        );
    }
    // Even at smoke scale the root tasks cross several injection segments,
    // so the retained count must stay far below size/SEGMENT_SLOTS if
    // reclamation works; the dedicated reclamation integration tests pin
    // the tight bounds, here we only guard against total regression.
    let peak = extra
        .get("peak_injector_segments")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(
        peak < soak.size as f64 / 64.0,
        "soak retained {peak} segments over {} roots — reclamation inert?",
        soak.size
    );

    // The parking scenarios: wakeup_latency's samples are the individual
    // submit→start latencies and its metrics must show notified wakeups.
    let wakeup = kernels
        .records
        .iter()
        .find(|r| r.group == "wakeup_latency")
        .expect("missing wakeup_latency record");
    assert_eq!(wakeup.secs.samples_s.len(), wakeup.repetitions);
    assert!(wakeup.secs.median_s > 0.0);
    assert!(
        wakeup.metrics.wakeups > 0,
        "submissions never woke a parked worker: {:?}",
        wakeup.metrics
    );
    assert!(
        wakeup.metrics.wake_latency.total() > 0,
        "no wake latencies recorded: {:?}",
        wakeup.metrics
    );
    // idle_burn is skipped only on platforms without a process-CPU clock;
    // CI and the recording machine are Linux.
    if cfg!(target_os = "linux") {
        let idle = kernels
            .records
            .iter()
            .find(|r| r.group == "idle_burn")
            .expect("missing idle_burn record");
        let burn = idle
            .extra
            .as_ref()
            .and_then(|e| e.get("cpu_per_wall"))
            .and_then(|v| v.as_f64())
            .expect("idle_burn extra missing cpu_per_wall");
        // Parked workers burn (nearly) nothing; 50% of a core would mean
        // the scenario regressed all the way back to busy-polling.  The
        // sleep-poll baseline burned ~5% per idle worker, so even on a
        // noisy CI host this bound separates parking from polling.
        assert!(
            burn < 0.5,
            "idle scheduler burned {burn} CPU-seconds per wall-second"
        );
    }
}

#[test]
fn only_soak_runs_without_other_families() {
    let dir = scratch_dir("only-soak");
    let out = run_perf(&[
        "--smoke",
        "--only",
        "soak",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "perf --smoke --only soak failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !dir.join("BENCH_sort.json").exists(),
        "--only soak must not write a sort report"
    );
    let kernels =
        Report::from_json_str(&std::fs::read_to_string(dir.join("BENCH_kernels.json")).unwrap())
            .unwrap();
    assert!(kernels.records.iter().all(|r| r.group == "soak"));
    assert!(!kernels.records.is_empty());
}

#[test]
fn check_mode_fails_on_injected_regression_and_passes_on_honest_baseline() {
    let dir = scratch_dir("check");
    // `--threads 1,2`: the spawn_overhead gate compares the p = 1 cell.
    let out = run_perf(&[
        "--smoke",
        "--threads",
        "1,2",
        "--out-dir",
        dir.to_str().unwrap(),
        "--seed",
        "7",
    ]);
    assert!(out.status.success());

    let honest = dir.join("BENCH_sort.json");
    let text = std::fs::read_to_string(&honest).unwrap();
    let mut baseline = Report::from_json_str(&text).unwrap();

    // Honest baseline with a generous tolerance: same machine, same seed —
    // must pass.
    let pass_dir = scratch_dir("check-pass");
    let out = run_perf(&[
        "--smoke",
        "--seed",
        "7",
        "--out-dir",
        pass_dir.to_str().unwrap(),
        "--check",
        honest.to_str().unwrap(),
        "--tolerance",
        "100000",
    ]);
    assert!(
        out.status.success(),
        "honest baseline flagged as regression: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The BENCH_kernels.json beside the baseline gates spawn_overhead too.
    assert!(String::from_utf8_lossy(&out.stdout).contains("spawn_overhead cell(s) within"));

    // Inject a regression: pretend the baseline was 1000x faster.
    for record in &mut baseline.records {
        record.secs.median_s /= 1000.0;
    }
    let doctored = dir.join("baseline_doctored.json");
    std::fs::write(&doctored, baseline.to_json_string()).unwrap();
    let fail_dir = scratch_dir("check-fail");
    let out = run_perf(&[
        "--smoke",
        "--seed",
        "7",
        "--out-dir",
        fail_dir.to_str().unwrap(),
        "--check",
        doctored.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "doctored baseline must fail the check: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("check: FAILED"));
    assert!(stderr.contains("MMPar"));

    // The same for spawn_overhead: an honest sort baseline next to a kernel
    // baseline whose spawn cells were a million times faster.
    let kernels_dir = scratch_dir("check-kernels");
    let sort_copy = kernels_dir.join("BENCH_sort.json");
    std::fs::copy(&honest, &sort_copy).unwrap();
    let text = std::fs::read_to_string(dir.join("BENCH_kernels.json")).unwrap();
    let mut kernels = Report::from_json_str(&text).unwrap();
    for record in kernels
        .records
        .iter_mut()
        .filter(|r| r.name == "spawn_overhead")
    {
        record.secs.median_s /= 1e6;
    }
    std::fs::write(
        kernels_dir.join("BENCH_kernels.json"),
        kernels.to_json_string(),
    )
    .unwrap();
    let out = run_perf(&[
        "--smoke",
        "--seed",
        "7",
        "--out-dir",
        scratch_dir("check-kernels-out").to_str().unwrap(),
        "--check",
        sort_copy.to_str().unwrap(),
        "--tolerance",
        "100000",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "doctored spawn cells must fail the check: {stderr}"
    );
    assert!(stderr.contains("spawn_overhead/spawn_overhead"));
}

#[test]
fn in_place_check_compares_against_the_previous_contents() {
    // Regression test: with --out-dir equal to the baseline's directory the
    // fresh report overwrites the baseline file; the gate must still compare
    // against the baseline as it was BEFORE the run, not against itself.
    let dir = scratch_dir("check-in-place");
    // `--threads 1`: a cell with more threads than cores is not compared,
    // and the test must hold on a one-core host too.
    let out = run_perf(&[
        "--smoke",
        "--threads",
        "1",
        "--seed",
        "3",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let baseline_path = dir.join("BENCH_sort.json");
    let mut baseline =
        Report::from_json_str(&std::fs::read_to_string(&baseline_path).unwrap()).unwrap();
    for record in &mut baseline.records {
        record.secs.median_s /= 1000.0;
    }
    std::fs::write(&baseline_path, baseline.to_json_string()).unwrap();
    let out = run_perf(&[
        "--smoke",
        "--seed",
        "3",
        "--out-dir",
        dir.to_str().unwrap(),
        "--check",
        baseline_path.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "in-place check must not compare the fresh report against itself: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn check_fails_when_no_scenario_matches_the_baseline() {
    // In a full (non-smoke) run, a baseline recorded at a different size
    // matches nothing; a gate that compared zero scenarios must fail loudly
    // instead of passing.  (Under --smoke the harness instead re-measures at
    // the baseline's own parameters, so a mismatch cannot occur there.)
    let dir = scratch_dir("check-mismatch");
    let out = run_perf(&["--smoke", "--out-dir", dir.to_str().unwrap()]);
    assert!(out.status.success());
    let baseline = dir.join("BENCH_sort.json");
    let other_dir = scratch_dir("check-mismatch-run");
    let out = run_perf(&[
        "--size",
        "30000", // differs from the baseline's 20000
        "--threads",
        "2",
        "--reps",
        "1",
        "--warmups",
        "0",
        "--only",
        "sort",
        "--out-dir",
        other_dir.to_str().unwrap(),
        "--check",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no scenario"));
}

#[test]
fn partial_only_run_preserves_the_skipped_familys_records() {
    // `--only spawn_overhead` over an existing BENCH_kernels.json must carry
    // the other families' records over instead of silently discarding them.
    let dir = scratch_dir("only-preserves");
    let out = run_perf(&["--smoke", "--out-dir", dir.to_str().unwrap()]);
    assert!(out.status.success());
    let kernels_path = dir.join("BENCH_kernels.json");
    let full = Report::from_json_str(&std::fs::read_to_string(&kernels_path).unwrap()).unwrap();
    let kernel_count = full.records.iter().filter(|r| r.group == "kernel").count();
    let spawn_count = full
        .records
        .iter()
        .filter(|r| r.group == "spawn_overhead")
        .count();
    assert!(kernel_count > 0 && spawn_count > 0);

    let out = run_perf(&[
        "--smoke",
        "--only",
        "spawn_overhead",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let merged = Report::from_json_str(&std::fs::read_to_string(&kernels_path).unwrap()).unwrap();
    assert_eq!(
        merged
            .records
            .iter()
            .filter(|r| r.group == "spawn_overhead")
            .count(),
        spawn_count,
        "the spawn_overhead records must be refreshed, not duplicated"
    );
    // Everything else is carried over untouched, in the same order.
    let groups = |report: &Report| -> Vec<String> {
        report.records.iter().map(|r| r.group.clone()).collect()
    };
    assert_eq!(groups(&merged), groups(&full));
    for (kept, was) in merged.records.iter().zip(&full.records) {
        if kept.group != "spawn_overhead" {
            assert_eq!(kept, was, "a skipped family's record changed");
        }
    }
}

/// Runs `perf` with `args` and expects it to refuse them: exit 2 and a
/// one-line `error:` containing `named`.
fn refused(args: &[&str], named: &str) {
    let out = run_perf(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains("error: ") && stderr.contains(named),
        "{args:?}: {stderr}"
    );
}

#[test]
fn check_refuses_a_baseline_that_nests_too_deeply() {
    // 200 000 `[` overflowed the stack of the parser `perf` used to carry
    // (the process died of a signal); now it is an error message.
    let dir = scratch_dir("deep");
    let baseline = dir.join("BENCH_sort.json");
    std::fs::write(&baseline, "[".repeat(200_000)).unwrap();
    let out_dir = dir.join("out");
    let (out_dir, baseline) = (out_dir.to_str().unwrap(), baseline.to_str().unwrap());
    refused(
        &["--smoke", "--out-dir", out_dir, "--check", baseline],
        "nests too deeply",
    );
}

#[test]
fn check_refuses_a_damaged_kernel_baseline() {
    // A BENCH_kernels.json that is beside the baseline but is not a report
    // of this schema stops --check; "spawn_overhead not gated" is only for a
    // file that is not there (`smoke_check_compares_at_the_baselines_parameters`).
    let dir = scratch_dir("damaged-kernels");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let baseline = dir.join("BENCH_sort.json");
    std::fs::copy(root.join("BENCH_sort.json"), &baseline).unwrap();
    let kernels = std::fs::read_to_string(root.join("BENCH_kernels.json")).unwrap();
    let other_schema = kernels.replacen("\"schema_version\": 1", "\"schema_version\": 7", 1);
    let out_dir = dir.join("out");
    let (out_dir, baseline) = (out_dir.to_str().unwrap(), baseline.to_str().unwrap());
    for (damaged, named) in [
        (&kernels[..kernels.len() / 2], "invalid"),
        (&other_schema, "version 7"),
    ] {
        std::fs::write(dir.join("BENCH_kernels.json"), damaged).unwrap();
        refused(
            &["--smoke", "--out-dir", out_dir, "--check", baseline],
            named,
        );
    }
}

#[test]
fn partial_run_refuses_to_overwrite_a_report_it_cannot_read() {
    // `--only soak` carries the other families' records over from the report
    // at the destination; one it cannot parse must stay as it is, not be
    // replaced by a report holding soak records alone.
    let dir = scratch_dir("damaged-partial");
    let kernels_path = dir.join("BENCH_kernels.json");
    std::fs::write(&kernels_path, "{\"schema_version\": 1, \"records\": [").unwrap();
    refused(
        &[
            "--smoke",
            "--only",
            "soak",
            "--out-dir",
            dir.to_str().unwrap(),
        ],
        "BENCH_kernels.json",
    );
    let kept = std::fs::read_to_string(&kernels_path).unwrap();
    assert_eq!(kept, "{\"schema_version\": 1, \"records\": [");
}

#[test]
fn smoke_check_compares_at_the_baselines_parameters() {
    // --smoke --check must be meaningful against a full-size baseline: the
    // harness re-measures MMPar at the baseline's recorded cells.  A
    // non-regressed baseline (medians forced to ~infinity) therefore passes
    // even though the smoke sweep itself used different sizes.
    let dir = scratch_dir("smoke-check-params");
    let out = run_perf(&[
        "--smoke",
        "--threads",
        "1", // comparable on any host, see the in-place test
        "--seed",
        "7",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let baseline_path = dir.join("BENCH_sort.json");
    let mut baseline =
        Report::from_json_str(&std::fs::read_to_string(&baseline_path).unwrap()).unwrap();
    for record in &mut baseline.records {
        record.secs.median_s *= 1000.0; // current run is guaranteed faster
    }
    std::fs::write(&baseline_path, baseline.to_json_string()).unwrap();
    // Only the MMPar comparison is under test: without a kernel baseline
    // beside the sort one, spawn_overhead (two smoke-sized repetitions
    // against the default 25 %) is not gated.
    std::fs::remove_file(dir.join("BENCH_kernels.json")).unwrap();
    let run_dir = scratch_dir("smoke-check-params-run");
    let out = run_perf(&[
        "--smoke",
        "--seed",
        "7",
        "--size",
        "12345", // deliberately different from the baseline's 20000
        "--only",
        "sort",
        "--out-dir",
        run_dir.to_str().unwrap(),
        "--check",
        baseline_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "smoke check must compare at baseline parameters: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("check: OK"), "stdout: {stdout}");
    assert!(
        stdout.contains("spawn_overhead not gated"),
        "stdout: {stdout}"
    );
}

#[test]
fn explicit_flags_win_over_smoke_defaults_regardless_of_order() {
    let dir = scratch_dir("smoke-order");
    let out = run_perf(&[
        "--threads",
        "1",
        "--smoke",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let sort =
        Report::from_json_str(&std::fs::read_to_string(dir.join("BENCH_sort.json")).unwrap())
            .unwrap();
    assert!(
        sort.records.iter().all(|r| r.threads == 1),
        "--threads 1 before --smoke must not be overridden by the smoke defaults"
    );
}

#[test]
fn bad_arguments_exit_with_usage_error() {
    let out = run_perf(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run_perf(&["--threads", "0"]);
    assert_eq!(out.status.code(), Some(2));
}
