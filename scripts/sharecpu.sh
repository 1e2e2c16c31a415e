#!/usr/bin/env bash
# sharecpu.sh — what sharing costs the daemon: senn-serverd CPU per 1,000
# client queries with senn-load's sharing on and off (ROADMAP item 28(a)).
# Boots one daemon on CI's store (50,000 POIs, 16 clusters, 20 km square),
# warms it up, then runs `senn-load -sessions 64 -duration 10s` ten times
# per side, alternating (on, off, off, on, on, off, …). Each run reads
# cpu_user_ns and cpu_sys_ns from /v1/stats before and after and divides
# the difference by the run's completed queries. Writes the table to
# standard output:
#
#   bash scripts/sharecpu.sh > results/sharecpu.txt    # ~4 min, port 8046
#
# The load generator shares the host with the daemon. Standard toolchain,
# curl and jq only.
set -euo pipefail
cd "$(dirname "$0")/.."
addr=127.0.0.1:8046
work=$(mktemp -d)
daemon=
trap '[ -n "$daemon" ] && kill "$daemon" 2>/dev/null; rm -rf "$work"' EXIT
go build -o "$work/senn-serverd" ./cmd/senn-serverd
go build -o "$work/senn-load" ./cmd/senn-load
"$work/senn-serverd" -mkstore "$work/pois.senp" -pois 50000 -clusters 16 -width 20000 >/dev/null
"$work/senn-serverd" -store "$work/pois.senp" -addr "$addr" >/dev/null 2>&1 &
daemon=$!
for _ in $(seq 1 100); do curl -fsS "http://$addr/healthz" >/dev/null 2>&1 && break; sleep 0.2; done

load() { "$work/senn-load" -addr "$addr" -sessions 64 -duration "$2" -share="$1" -out "$work/load.json" >/dev/null; }
load true 3s
load false 3s
for i in $(seq 1 10); do
	if [ $((i % 2)) -eq 1 ]; then order="true false"; else order="false true"; fi
	for share in $order; do
		curl -fsS "http://$addr/v1/stats" >"$work/before.json"
		load "$share" 10s
		curl -fsS "http://$addr/v1/stats" >"$work/after.json"
		jq -cs --argjson run "$i" '.[2].load as $l | {run: $run, share: $l.sharing,
			queries: $l.queries, knn: $l.knn_queries, server: $l.server_solved,
			user: ((.[1].cpu_user_ns - .[0].cpu_user_ns) / $l.queries / 1000),
			sys: ((.[1].cpu_sys_ns - .[0].cpu_sys_ns) / $l.queries / 1000)}' \
			"$work/before.json" "$work/after.json" "$work/load.json" >>"$work/runs.jsonl"
	done
done
kill -TERM "$daemon"
wait "$daemon" || true
daemon=

# Quartiles interpolate linearly between order statistics.
jq -rs '
def q($p): sort as $v | (($v | length) - 1) * $p | floor as $i | (. - $i) as $f
	| $v[$i] + $f * ($v[[$i + 1, ($v | length) - 1] | min] - $v[$i]);
def r($d): . * $d | round / $d | tostring;
def pad($n): if length < $n then . + ([range($n - length) | " "] | add) else . + " " end;
def mq: "\(q(0.5) | r(100)) [\(q(0.25) | r(100)), \(q(0.75) | r(100))]";
def tot: .user + .sys;
map(select(.share)) as $on | map(select(.share | not)) as $off
| def ratio(f): ($on | map(f) | q(0.5)) / ($off | map(f) | q(0.5)) | r(100);
"Daemon CPU per 1,000 client queries, sharing on and off (ms; median [Q1, Q3] of 10 runs per side; extension study)",
"sharing  user                   system                 total                  server-solved",
($on, $off | "\(if .[0].share then "on" else "off" end | pad(9))\(map(.user) | mq | pad(23))\(map(.sys) | mq | pad(23))\(map(tot) | mq | pad(23))\(map(.server / .knn * 100) | q(0.5) | r(10)) %"),
"on/off   user \(ratio(.user))x, system \(ratio(.sys))x, total \(ratio(tot))x (ratio of medians); total per run pair \([range($on | length) as $k | ($on[$k] | tot) / ($off[$k] | tot)] | mq)x",
"",
"Runs in order (ms per 1,000 client queries)",
"run  sharing  queries   server-solved / kNN   user    system  total",
(.[] | "\(.run | tostring | pad(5))\(if .share then "on" else "off" end | pad(9))\(.queries | tostring | pad(10))\("\(.server) / \(.knn)" | pad(22))\(.user | r(1000) | pad(8))\(.sys | r(1000) | pad(8))\(tot | r(1000))")
' "$work/runs.jsonl"
