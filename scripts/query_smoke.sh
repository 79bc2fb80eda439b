#!/usr/bin/env bash
# CI query smoke (ISSUE 5): record the deterministic example trace,
# re-chunk it into a multi-chunk FLXT v3 container, run the canned
# flxt_query pipelines, and byte-diff each against its golden CSV in
# tests/golden/. A second pass re-runs one selective query so the FLXI
# sidecar written by the first pass must actually prune chunks — and
# must not change a single output byte. The sidecar itself is byte-diffed
# against tests/golden/query_smoke.flxi.
#
# Usage: scripts/query_smoke.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
GOLDEN=tests/golden
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$BUILD/examples/offline_analysis" "$TMP/smoke.flxt" > /dev/null
"$BUILD/tools/flxt_convert" "$TMP/smoke.flxt" "$TMP/smoke_chunked.flxt" \
  --chunk-records 16 > /dev/null
TRACE="$TMP/smoke_chunked.flxt"
SYMS="$TMP/smoke.flxt.syms"

declare -A QUERIES=(
  [group_func]='group func: count, sum(dur), p95(dur)'
  [filter_item]='filter item == 1 | group func: count'
  [topk_items]='group item: count, max(ts) | top 3 by count'
  [select_rows]='filter func == "sample_app::f3_transform" && core == 1 | select item, ts | limit 5'
  [outliers]='outliers k=1.0 warmup=3'
)

fail=0
for name in group_func filter_item topk_items select_rows outliers; do
  "$BUILD/tools/flxt_query" "$TRACE" "$SYMS" "${QUERIES[$name]}" --csv \
    > "$TMP/$name.csv"
  if ! diff -u "$GOLDEN/query_$name.csv" "$TMP/$name.csv"; then
    echo "FAIL: $name diverges from $GOLDEN/query_$name.csv" >&2
    fail=1
  else
    echo "ok: $name"
  fi
done

# The first pass wrote the FLXI sidecar; its bytes are pinned (the
# image CRC it carries is derived from the chunk frames and must equal
# crc32 over the intact file), and the standalone refresh path must
# find it fresh.
if cmp "$GOLDEN/query_smoke.flxi" "$TRACE.flxi"; then
  echo "ok: sidecar bytes"
else
  echo "FAIL: $TRACE.flxi differs from $GOLDEN/query_smoke.flxi" >&2
  fail=1
fi
if "$BUILD/tools/flxt_recover" "$TRACE" "$SYMS" --rebuild-index \
    | grep -q ': fresh$'; then
  echo "ok: sidecar fresh"
else
  echo "FAIL: flxt_recover --rebuild-index did not find the sidecar fresh" >&2
  fail=1
fi

# Wait-graph leg (ISSUE 8): the deterministic head-of-line demo records
# wait edges into a v3 container; critical_path must name the injected
# blocker (ring 10 held by core 2) byte-identically to the goldens.
"$BUILD/examples/waitgraph_demo" "$TMP/wait.flxt" > /dev/null
declare -A WAIT_QUERIES=(
  [critical_path]='filter item >= 0 | critical_path | top 5 by blocked'
  [blocked_by]='filter item >= 0 | blocked_by'
)
for name in critical_path blocked_by; do
  "$BUILD/tools/flxt_query" "$TMP/wait.flxt" "$TMP/wait.flxt.syms" \
    "${WAIT_QUERIES[$name]}" --csv > "$TMP/$name.csv"
  if ! diff -u "$GOLDEN/query_$name.csv" "$TMP/$name.csv"; then
    echo "FAIL: $name diverges from $GOLDEN/query_$name.csv" >&2
    fail=1
  else
    echo "ok: $name"
  fi
done
"$BUILD/tools/flxt_query" "$TMP/wait.flxt" "$TMP/wait.flxt.syms" \
  "${WAIT_QUERIES[critical_path]}" --csv --stats 2>&1 >/dev/null \
  | grep -q 'wait edges' || {
  echo "FAIL: --stats did not report the wait-edge scan" >&2
  fail=1
}

# Second pass: the sidecar from the first pass must prune, and pruned
# output must be byte-identical to the golden (i.e. to the full scan).
"$BUILD/tools/flxt_query" "$TRACE" "$SYMS" "${QUERIES[filter_item]}" \
  --csv --stats > "$TMP/pruned.csv" 2> "$TMP/pruned.stats"
grep -q 'pruned [1-9]' "$TMP/pruned.stats" || {
  echo "FAIL: second pass did not prune: $(cat "$TMP/pruned.stats")" >&2
  fail=1
}
diff -u "$GOLDEN/query_filter_item.csv" "$TMP/pruned.csv" || {
  echo "FAIL: pruned scan changed the output" >&2
  fail=1
}
if grep -q '(index)' "$TMP/pruned.stats"; then
  echo "ok: pruned pass ($(cat "$TMP/pruned.stats"))"
else
  echo "FAIL: second pass did not prune through the FLXI sidecar" >&2
  fail=1
fi

exit "$fail"
