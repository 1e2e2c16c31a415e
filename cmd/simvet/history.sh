#!/usr/bin/env bash
# Runs today's simvet analyzers over the tree each PR started from and writes
# results/SIMVET_HISTORY.txt: analyzer x commit x diagnostics. It is the
# evidence half of the linter audit (ROADMAP item 8) — which analyzers would
# ever have fired on real code, rather than only on their own fixtures — and
# removes nothing. Needs only git and the Go toolchain; no network.
#
# The committed results/SIMVET_HISTORY.txt was recorded with five analyzers
# (maporder, floateq, locksafe, goleak, errsink). floateq and goleak never
# fired on any parent in it and were deleted — tests now catch the faults
# they guarded against (DESIGN §7) — so re-running this script reports the
# three survivors only: write to another file unless that is what you want.
#
# A "PR" is a commit on the first-parent history whose subject is not a
# roadmap re-anchor or a growth seed; its parent tree is what the PR's author
# was handed. Trees are unpacked with `git archive` into a temporary directory
# (nothing is checked out, no worktree is registered) and analyzed by one
# simvet binary built from the working tree, so every commit is judged by the
# same rules. Suppression annotations already present in an old tree still
# suppress: the "annotated" column counts them per analyzer, so a low
# diagnostic count next to a high annotation count reads as "fired and was
# reviewed", not as "never fired". The suite's own source (internal/analysis,
# cmd/simvet) names every key in its docs and tests and is not counted.
#
# Usage: bash cmd/simvet/history.sh [out-file]
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="${1:-$root/results/SIMVET_HISTORY.txt}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
export GOTOOLCHAIN=local

(cd "$root" && go build -o "$tmp/simvet" ./cmd/simvet)
analyzers=$("$tmp/simvet" -list | sed -n 's/^\([a-z]*\): .*/\1/p')
declare -A key=([maporder]=ordered [errsink]=discard [locksafe]=lockio)

{
  echo "simvet history: today's analyzers ($(git -C "$root" rev-parse --short HEAD)+working tree) over the parent tree of every PR"
  echo "diagnostics = findings not suppressed in that tree; annotated = //simvet:<key> suppressions in it outside internal/analysis and cmd/simvet"
  echo
  printf '%-9s %-52s %-14s %11s %9s\n' parent "of PR" analyzer diagnostics annotated
} > "$out"

git -C "$root" rev-list --first-parent --reverse HEAD | while read -r c; do
  subject=$(git -C "$root" log -1 --format=%s "$c")
  case "$subject" in
    re-anchor*|Re-anchor*|v0:*|"PR 0:"*) continue ;;
  esac
  git -C "$root" rev-parse -q --verify "$c^" > /dev/null || continue
  parent=$(git -C "$root" rev-parse --short "$c^")
  tree="$tmp/tree"
  rm -rf "$tree" && mkdir "$tree"
  git -C "$root" archive "$c^" | tar -x -C "$tree"
  [ -f "$tree/go.mod" ] || continue
  # One run per tree; findings carry their analyzer's name.
  (cd "$tree" && "$tmp/simvet" ./... 2> "$tmp/err" > "$tmp/diags") || true
  if grep -qv '^simvet: [0-9]* finding' "$tmp/err"; then
    printf '%-9s %-52.52s %s\n' "$parent" "$subject" "not analyzable: $(grep -v '^simvet: [0-9]* finding' "$tmp/err" | head -1)" >> "$out"
    continue
  fi
  for a in $analyzers; do
    n=$(grep -c ": $a: " "$tmp/diags" || true)
    annotated=-
    if [ -n "${key[$a]:-}" ]; then
      annotated=$( (grep -roE "//simvet:${key[$a]}\b" --include='*.go' --exclude-dir=testdata "$tree" || true) |
        grep -cv "^$tree/\(internal/analysis\|cmd/simvet\)/" || true)
    fi
    printf '%-9s %-52.52s %-14s %11d %9s\n' "$parent" "$subject" "$a" "$n" "$annotated" >> "$out"
  done
  if [ -s "$tmp/diags" ]; then
    sed "s|^$tree/||; s|^|    |" "$tmp/diags" >> "$out"
  fi
done

# Per analyzer: parents it fired on, diagnostics in all, most suppressions seen.
{
  echo
  printf '%-14s %13s %11s %14s\n' analyzer "parents fired" diagnostics "max annotated"
  for a in $analyzers; do
    awk -v a="$a" 'NF > 3 && $(NF-2) == a && $(NF-1) ~ /^[0-9]+$/ {
        d += $(NF-1); if ($(NF-1) > 0) f++; if ($NF != "-" && $NF + 0 > m) m = $NF + 0
      } END { printf "%-14s %13d %11d %14d\n", a, f, d, m }' "$out"
  done
} > "$tmp/totals"
cat "$tmp/totals" >> "$out"
echo "wrote $out"
