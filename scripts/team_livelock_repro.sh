#!/usr/bin/env bash
# Reproducer for the team-formation livelock fixed in PR 15 (a coordinator
# that lost a conflict disbanded its team before registering at the winner):
# six concurrent processes, each looping the integration test
# `alternating_team_sizes_grow_and_shrink`.  Rare in one process, the wedge
# showed within 64-130 rounds per process once six of them compete for the
# cores; after the fix 18 000 rounds ran clean.
#
#   scripts/team_livelock_repro.sh [ROUNDS] [cargo test flags, e.g. --release]
#
# ROUNDS is per process (default 100).  Every round runs under the test's own
# watchdog (teamsteal_core::test_support), which aborts a wedged process after
# 90 s with the scheduler's state dump; the script exits 1 if any round of
# any process failed, and prints the counts either way.
set -euo pipefail

cd "$(dirname "$0")/.."
rounds=${1:-100}
shift || true
processes=6
test=alternating_team_sizes_grow_and_shrink

binary=$(cargo test --test scheduler_integration --no-run --message-format=json "$@" 2>/dev/null |
    grep -o '"executable":"[^"]*scheduler_integration-[^"]*"' | tail -n 1 | cut -d'"' -f4)
if [ ! -x "$binary" ]; then
    echo "team_livelock_repro: could not build the scheduler_integration test binary" >&2
    exit 2
fi

logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT
pids=()
for process in $(seq "$processes"); do
    (
        for round in $(seq "$rounds"); do
            if ! "$binary" --exact "$test" >"$logs/$process.out" 2>&1; then
                echo "process $process wedged or failed in round $round:" >&2
                tail -n 40 "$logs/$process.out" >&2
                exit 1
            fi
        done
    ) &
    pids+=($!)
done

failed=0
for pid in "${pids[@]}"; do
    wait "$pid" || failed=$((failed + 1))
done
echo "team_livelock_repro: $processes processes x $rounds rounds of $test, $failed process(es) failed"
[ "$failed" -eq 0 ]
