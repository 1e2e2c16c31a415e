#!/usr/bin/env bash
# prodcover.sh — the production functions the running system never runs.
# Builds the four binaries with coverage over every repro package, runs the
# workloads CI runs (the determinism job's figure invocations, one road-mode
# and one free-movement senn-sim, serve-smoke's boot and load runs, ended by
# SIGTERM so the daemon writes its counters) and the examples, and rewrites
# results/PRODCOVER.txt:
# one line per function with zero hits, its non-production callers and its
# disposition (scripts/prodcover/main.go says how each is decided). Standard
# toolchain only; about a minute on 2 vCPUs. Uses port 8046.
#
#   bash scripts/prodcover.sh && git diff --exit-code results/PRODCOVER.txt
set -euo pipefail
cd "$(dirname "$0")/.."
record=results/PRODCOVER.txt
work=$(mktemp -d)
daemon=
trap '[ -n "$daemon" ] && kill "$daemon" 2>/dev/null; rm -rf "$work"' EXIT
mkdir "$work/cov" "$work/out" "$work/excov"
export GOCOVERDIR=$work/cov

for cmd in experiments senn-sim senn-serverd senn-load; do
	go build -cover -coverpkg=repro/... -o "$work/$cmd" "./cmd/$cmd"
done
x() { "$work/$1" "${@:2}" >/dev/null; }

# The determinism job verbatim: at -parallel 2 each world gets one worker.
for p in 1 20; do
	x experiments -fig fig13 -scale 30 -parallel "$p" -json "$work/out"
	x experiments -fig fig14 -scale 30 -hostscale 8 -parallel "$p" -json "$work/out"
	x experiments -fig fig17 -parallel "$p" -json "$work/out"
done
for name in fig9 fig11 fig13 fig15 free2mi uncertain fig17 diskio; do
	x experiments -fig "$name" -json "$work/out"
done
x senn-sim -region riverside -hostscale 2
# Free movement (mobility.Waypoints), the sim-query and sim-move worlds' mode.
x senn-sim -region riverside -hostscale 2 -free

# serve-smoke: boot, the sharing-off run (kNN + Range), the sharing-on run.
x senn-serverd -mkstore "$work/pois.senp" -pois 50000 -clusters 16 -width 20000
"$work/senn-serverd" -store "$work/pois.senp" -addr 127.0.0.1:8046 >/dev/null 2>&1 &
daemon=$!
for _ in $(seq 1 100); do curl -fsS http://127.0.0.1:8046/healthz >/dev/null 2>&1 && break; sleep 0.2; done
x senn-load -addr 127.0.0.1:8046 -sessions 2 -share=false -duration 5s
x senn-load -addr 127.0.0.1:8046 -sessions 512 -duration 15s -share -txrange 3000
curl -fsS http://127.0.0.1:8046/v1/stats >/dev/null
# Stands in for bench/daemon.go's session mint, the shim's only caller.
curl -fsS -X POST http://127.0.0.1:8046/v1/session >/dev/null
kill -TERM "$daemon"
wait "$daemon"
daemon=

# The examples are the facade's workload: what they reach is facade.
for ex in examples/*/; do
	go build -cover -coverpkg=repro/... -o "$work/example" "./$ex"
	GOCOVERDIR=$work/excov x example
done
unset GOCOVERDIR
go tool covdata func -i="$work/excov" >"$work/examples"
go tool covdata func -i="$work/cov" | go run ./scripts/prodcover "$record" "$work/examples" >"$work/record"
mv "$work/record" "$record"
