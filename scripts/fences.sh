#!/usr/bin/env bash
# fences.sh — the repository's grep fences: invariants a static search states
# more cheaply than an analyzer. Run from anywhere; exits non-zero and names
# the offending lines when a fence is crossed. CI's lint job runs it.
#
#   bash scripts/fences.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
fence() { # fence <message> <offending lines>
	if [ -n "$2" ]; then
		echo "$1:" >&2
		echo "$2" >&2
		fail=1
	fi
}

# The peer phase of Algorithm 1 is written once (internal/core,
# VerifierScratch.VerifyPeers) and Lemma 3.8 has one production predicate
# (geom.Region.MaxCoveredRadius): a per-peer kNN_single call, the per-circle
# coverage test or the proximity sort outside _test.go means a second copy
# has grown back.
fence "peer verification outside internal/core" "$(grep -rnE 'VerifySinglePeer(At)?\(|CoversCircle\(|SortPeersByProximity' --include='*.go' . \
	| grep -v '_test\.go:' | grep -vE '^\./(internal/core/|internal/geom/geomtest/|senn\.go:)' || true)"

# The arc-arrangement oracle that core's and client's tests referee with is
# internal/geom/geomtest, a test-support package: nothing but _test.go files
# may import it.
fence "geomtest imported outside _test.go" "$(grep -rl '"repro/internal/geom/geomtest"' --include='*.go' . | grep -v '_test\.go$' || true)"

# Every atomic is a typed sync/atomic value, which has no plain-access
# spelling for go test -race to miss.
fence "function-style sync/atomic call (use atomic.Int64 and friends)" \
	"$(grep -rnE 'atomic\.(Add|And|CompareAndSwap|Load|Or|Store|Swap)[A-Z][A-Za-z0-9]*\(' --include='*.go' . | grep -v '/testdata/' || true)"

# The simulator's only clock is virtual step time. The dynamic gates own this
# rule and the per-shard RNG rule either way: a wall-clock read or a
# global-source draw changes output between two runs of one seed, which fails
# the determinism job, TestWorldParallelDeterminism and
# TestParallelMatchesSequential* (EXPERIMENTS.md, "Seeded faults").
fence "wall clock in a simulation package (virtual step time is the only clock)" \
	"$(grep -rnE '\btime\.(Now|Since|Sleep)\b' --include='*.go' internal/sim internal/core internal/experiments | grep -v '_test\.go:' || true)"

exit "$fail"
