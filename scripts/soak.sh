#!/usr/bin/env bash
# Flake soak for the service suites: runs each of the pool_props, chaos,
# fleet_chaos and http_smoke test binaries N times, 3 copies at once, and
# prints the failure rate per suite. Exits 1 if any run failed; the log of
# every failed run is kept under target/soak/.
#
#   scripts/soak.sh [N]   # N runs per suite, default 45
#
# The binaries are built once, in release with the lockdep tracker on
# (the configuration CI's chaos smoke steps use).
set -euo pipefail

runs=${1:-45}
copies=3
suites=(pool_props chaos fleet_chaos http_smoke)

cd "$(dirname "$0")/.."
logs=target/soak
rm -rf "$logs"
mkdir -p "$logs"

build_args=()
for suite in "${suites[@]}"; do
    build_args+=(--test "$suite")
done
build_log=$(cargo test --release -p redistrib-service --features lockdep --no-run \
    "${build_args[@]}" 2>&1) || { echo "$build_log"; exit 2; }

failed_any=0
printf '%-12s %5s %7s %6s\n' suite runs failed rate
for suite in "${suites[@]}"; do
    # cargo prints `Executable tests/<suite>.rs (target/release/deps/<suite>-<hash>)`.
    bin=$(sed -n "s|.*Executable tests/$suite\.rs (\(.*\))\$|\1|p" <<<"$build_log")
    if [ -z "$bin" ]; then
        echo "no test binary found for $suite" >&2
        exit 2
    fi
    failed=0
    started=0
    while [ "$started" -lt "$runs" ]; do
        pids=()
        for _ in $(seq "$copies"); do
            [ "$started" -lt "$runs" ] || break
            started=$((started + 1))
            "$bin" -q >"$logs/$suite-$started.log" 2>&1 &
            pids+=("$!:$started")
        done
        for entry in "${pids[@]}"; do
            if wait "${entry%%:*}"; then
                rm -f "$logs/$suite-${entry##*:}.log"
            else
                failed=$((failed + 1))
            fi
        done
    done
    [ "$failed" -eq 0 ] || failed_any=1
    printf '%-12s %5d %7d %5.1f%%\n' "$suite" "$runs" "$failed" \
        "$(awk -v f="$failed" -v n="$runs" 'BEGIN { print 100 * f / n }')"
done
exit "$failed_any"
