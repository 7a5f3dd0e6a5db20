#!/usr/bin/env bash
# Tier-1 soak: runs `cargo test -q` repeatedly in debug and then in release,
# each run beside two busy-loop CPU hogs, and counts the runs that failed.
# A test whose assertion rests on a timing premise ("1 ms later the woken
# thread has parked again") shows here long before it shows in CI.
#
#   scripts/tier1_soak.sh [DEBUG_RUNS] [RELEASE_RUNS]     (defaults 30 and 10)
#
# The test binaries are built before the hogs start, and every run passes
# `--no-fail-fast`, so a failing test binary does not hide the ones after
# it.  Prints one line per failed run with the names of its failing tests,
# then a pass/fail count per profile; exits 1 if any run failed.  The hogs
# are killed on exit.
set -euo pipefail

cd "$(dirname "$0")/.."
debug_runs=${1:-30}
release_runs=${2:-10}

hogs=()
stop_hogs() {
    if [ ${#hogs[@]} -gt 0 ]; then
        kill "${hogs[@]}" 2>/dev/null || true
        wait "${hogs[@]}" 2>/dev/null || true
    fi
}
log=$(mktemp)
trap 'stop_hogs; rm -f "$log"' EXIT

cargo test -q --no-run >/dev/null 2>&1
cargo test -q --release --no-run >/dev/null 2>&1

for _ in 1 2; do
    sh -c 'while :; do :; done' &
    hogs+=($!)
done

summary=()
total_failed=0
for profile in debug release; do
    if [ "$profile" = debug ]; then runs=$debug_runs; flags=(); else runs=$release_runs; flags=(--release); fi
    passed=0
    failed=0
    for run in $(seq "$runs"); do
        if cargo test -q --no-fail-fast ${flags[@]+"${flags[@]}"} >"$log" 2>&1; then
            passed=$((passed + 1))
        else
            failed=$((failed + 1))
            names=$(sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$log" | tr '\n' ' ')
            echo "tier1_soak: $profile run $run failed: ${names:-(no test named; see below)}"
            if [ -z "$names" ]; then tail -n 20 "$log"; fi
        fi
    done
    summary+=("tier1_soak: $profile $passed passed, $failed failed of $runs")
    total_failed=$((total_failed + failed))
done
printf '%s\n' "${summary[@]}"
[ "$total_failed" -eq 0 ]
