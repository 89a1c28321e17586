#!/usr/bin/env bash
# Emit BENCH_kernel.json: a machine-readable snapshot of the kernel
# benchmarks (BenchmarkKernelScan, BenchmarkKernelSweep — including the
# 1M-node scale-free dense-guard cases — the root E15 suite, the unified
# upper-tier suite E16_UnifiedTiers, the live store's BenchmarkStoreMutate
# write path, the HTTP delivery comparison E17_Streaming, and the CRPQ/GQL
# join queries E31_JoinQueries, with their allocations), so pre/post
# comparisons across PRs diff a file instead of scraping logs.
# BENCHTIME defaults to 1x: enough for the coarse regressions the file
# guards (the sweep cases run seconds per iteration); raise it for stable
# micro-numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

GO="${GO:-go}"
OUT="${1:-BENCH_kernel.json}"
BENCHTIME="${BENCHTIME:-1x}"

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

"$GO" test -run '^$' -bench 'BenchmarkKernel' -benchtime "$BENCHTIME" ./internal/pg/ | tee "$TMP"
"$GO" test -run '^$' -bench 'BenchmarkE15_UnifiedKernel' -benchtime "$BENCHTIME" . | tee -a "$TMP"
"$GO" test -run '^$' -bench 'BenchmarkE16_UnifiedTiers' -benchtime "$BENCHTIME" . | tee -a "$TMP"
"$GO" test -run '^$' -bench 'BenchmarkStoreMutate' -benchtime "$BENCHTIME" ./internal/store/ | tee -a "$TMP"
"$GO" test -run '^$' -bench 'BenchmarkE17_Streaming' -benchtime "$BENCHTIME" ./internal/server/ | tee -a "$TMP"
"$GO" test -run '^$' -bench 'BenchmarkE31_JoinQueries' -benchtime "$BENCHTIME" . | tee -a "$TMP"

{
  echo '{'
  printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "go": "%s",\n' "$("$GO" version)"
  printf '  "benchtime": "%s",\n' "$BENCHTIME"
  echo '  "benchmarks": ['
  awk '/^Benchmark/ {
    allocs = ""
    if ($6 == "B/op" && $8 == "allocs/op") {
      allocs = sprintf(", \"bytes_per_op\": %s, \"allocs_per_op\": %s", $5, $7)
    }
    printf "%s    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s%s}", sep, $1, $2, $3, allocs
    sep = ",\n"
  } END { print "" }' "$TMP"
  echo '  ]'
  echo '}'
} > "$OUT"
echo "wrote $OUT"
