#!/usr/bin/env bash
# smoke.sh — end-to-end scheduler-as-a-service smoke test.
#
# Builds snsd and snsload, starts a daemon, drives a deterministic load
# through the async REST API, kills the daemon with SIGTERM mid-state
# (snapshot on shutdown), restarts it with -restore, and replays the
# same stream: every retried submission must deduplicate against its
# pre-restart job, and new work must still flow. Then runs every
# examples/* program. Exits non-zero on any lost job, duplicated job,
# failed submission, leaked goroutine, failing example, or if the whole
# run exceeds the watchdog timeout.
set -euo pipefail
cd "$(dirname "$0")/.."

# Watchdog: a hung daemon (deadlocked scheduler goroutine, stuck drain)
# must fail the gate, not wedge CI. Re-exec the script under timeout.
SMOKE_TIMEOUT="${SMOKE_TIMEOUT:-300}"
if [[ -z "${SMOKE_WATCHDOG:-}" ]] && command -v timeout >/dev/null 2>&1; then
	SMOKE_WATCHDOG=1 exec timeout --signal=TERM --kill-after=10 "$SMOKE_TIMEOUT" "$0" "$@"
fi

PORT="${SMOKE_PORT:-18080}"
ADDR="http://127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
SNAP="$WORK/snsd.snapshot"
DAEMON_PID=""

cleanup() {
	[[ -n "$DAEMON_PID" ]] && kill "$DAEMON_PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/snsd" ./cmd/snsd
go build -o "$WORK/snsload" ./cmd/snsload

wait_healthy() {
	for _ in $(seq 1 100); do
		if curl -fsS "$ADDR/healthz" >/dev/null 2>&1; then
			return 0
		fi
		sleep 0.1
	done
	echo "smoke: daemon never became healthy" >&2
	return 1
}

goroutines() {
	curl -fsS "$ADDR/v1/debug/goroutines" | grep -o '[0-9]\+'
}

# check_no_leak polls the daemon's goroutine count until it returns to
# the post-startup baseline (plus slack for in-flight HTTP conns); a
# count that stays elevated means request handling leaked goroutines.
check_no_leak() {
	local baseline="$1" now
	for _ in $(seq 1 50); do
		now="$(goroutines)"
		if (( now <= baseline + 2 )); then
			echo "smoke: goroutines ok (baseline=$baseline now=$now)"
			return 0
		fi
		sleep 0.2
	done
	echo "smoke: goroutine leak: baseline=$baseline now=$(goroutines)" >&2
	return 1
}

echo "== smoke: fresh daemon =="
"$WORK/snsd" -listen "127.0.0.1:${PORT}" -nodes 256 -policy SNS \
	-timescale 1 -snapshot "$SNAP" &
DAEMON_PID=$!
wait_healthy
BASELINE1="$(goroutines)"

echo "== smoke: load (jobs stay live: long runtimes at timescale 1) =="
"$WORK/snsload" -addr "$ADDR" -jobs 200 -max-nodes 16 -concurrency 8 \
	-name-prefix smoke | tee "$WORK/load1.out"
grep -q 'failed=0' "$WORK/load1.out"
grep -q 'submitted=200' "$WORK/load1.out"
check_no_leak "$BASELINE1"

echo "== smoke: SIGTERM (drain + snapshot) =="
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""
[[ -s "$SNAP" ]] || { echo "smoke: no snapshot written" >&2; exit 1; }

echo "== smoke: restore =="
"$WORK/snsd" -listen "127.0.0.1:${PORT}" -policy SNS \
	-timescale 1 -snapshot "$SNAP" -restore &
DAEMON_PID=$!
wait_healthy
BASELINE2="$(goroutines)"

echo "== smoke: replay the same stream (must fully dedup) =="
"$WORK/snsload" -addr "$ADDR" -jobs 200 -max-nodes 16 -concurrency 8 \
	-name-prefix smoke | tee "$WORK/load2.out"
grep -q 'failed=0' "$WORK/load2.out"
grep -q 'deduped=200' "$WORK/load2.out"
grep -q 'submitted=0 ' "$WORK/load2.out" || grep -q 'submitted=0$' "$WORK/load2.out" || \
	{ echo "smoke: replay admitted duplicates" >&2; exit 1; }

echo "== smoke: new work still flows =="
"$WORK/snsload" -addr "$ADDR" -jobs 20 -max-nodes 8 -concurrency 4 \
	-name-prefix smoke2 | tee "$WORK/load3.out"
grep -q 'failed=0' "$WORK/load3.out"
grep -q 'submitted=20' "$WORK/load3.out"
check_no_leak "$BASELINE2"

echo "== smoke: clean shutdown =="
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""

echo "== smoke: examples =="
for ex in examples/*/; do
	ex="${ex%/}"
	go build -o "$WORK/example" "./$ex"
	"$WORK/example" >"$WORK/example.out" 2>&1 || {
		echo "smoke: $ex exited non-zero:" >&2
		cat "$WORK/example.out" >&2
		exit 1
	}
	echo "smoke: $ex ok"
done

echo "smoke: OK"
