#!/usr/bin/env bash
# CI catalog smoke (ISSUE 9): ingest the deterministic example trace
# into a fresh catalog and run the canned flxt_query pipelines through
# --catalog federation, then do the same for the wait-graph demo trace
# and the wait stages. Every answer must be byte-identical to the
# single-trace goldens in tests/golden/ — federation must never change
# a byte — and the ledger must account every member as ok.
#
# Usage: scripts/catalog_smoke.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
GOLDEN=tests/golden
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$BUILD/examples/offline_analysis" "$TMP/smoke.flxt" > /dev/null
SYMS="$TMP/smoke.flxt.syms"
CAT="$TMP/catalog"
mkdir "$CAT"
"$BUILD/tools/flxt_convert" "$TMP/smoke.flxt" "$CAT/member.flxt" \
  --chunk-records 16 > /dev/null

"$BUILD/tools/flxt_hub" ingest "$CAT" "$SYMS" | tee "$TMP/ingest.out"
grep -q '1 registered' "$TMP/ingest.out"
"$BUILD/tools/flxt_hub" verify "$CAT" "$SYMS"

declare -A QUERIES=(
  [group_func]='group func: count, sum(dur), p95(dur)'
  [filter_item]='filter item == 1 | group func: count'
  [topk_items]='group item: count, max(ts) | top 3 by count'
  [select_rows]='filter func == "sample_app::f3_transform" && core == 1 | select item, ts | limit 5'
  [outliers]='outliers k=1.0 warmup=3'
)

fail=0
for name in group_func filter_item topk_items select_rows outliers; do
  "$BUILD/tools/flxt_query" "$CAT" "$SYMS" "${QUERIES[$name]}" \
    --catalog --csv > "$TMP/$name.csv" 2> "$TMP/$name.ledger"
  if ! diff -u "$GOLDEN/query_$name.csv" "$TMP/$name.csv"; then
    echo "FAIL: federated $name diverges from $GOLDEN/query_$name.csv" >&2
    fail=1
  elif ! grep -q 'traces: 1 ok, 0 salvaged, 0 quarantined, 0 skipped' \
      "$TMP/$name.ledger"; then
    echo "FAIL: $name ledger: $(cat "$TMP/$name.ledger")" >&2
    fail=1
  else
    echo "ok: federated $name"
  fi
done

# Wait leg: the head-of-line demo's wait edges, ingested into a second
# catalog, must federate to the single-trace critical_path/blocked_by
# goldens — the wait stages fan out and merge like every other stage.
"$BUILD/examples/waitgraph_demo" "$TMP/wait.flxt" > /dev/null
WSYMS="$TMP/wait.flxt.syms"
WCAT="$TMP/wait_catalog"
mkdir "$WCAT"
mv "$TMP/wait.flxt" "$WCAT/member.flxt"
"$BUILD/tools/flxt_hub" ingest "$WCAT" "$WSYMS" > "$TMP/wait_ingest.out"
grep -q '1 registered' "$TMP/wait_ingest.out"

declare -A WAIT_QUERIES=(
  [critical_path]='filter item >= 0 | critical_path | top 5 by blocked'
  [blocked_by]='filter item >= 0 | blocked_by'
)
for name in critical_path blocked_by; do
  "$BUILD/tools/flxt_query" "$WCAT" "$WSYMS" "${WAIT_QUERIES[$name]}" \
    --catalog --csv > "$TMP/$name.csv" 2> "$TMP/$name.ledger"
  if ! diff -u "$GOLDEN/query_$name.csv" "$TMP/$name.csv"; then
    echo "FAIL: federated $name diverges from $GOLDEN/query_$name.csv" >&2
    fail=1
  elif ! grep -q 'traces: 1 ok, 0 salvaged, 0 quarantined, 0 skipped' \
      "$TMP/$name.ledger"; then
    echo "FAIL: $name ledger: $(cat "$TMP/$name.ledger")" >&2
    fail=1
  else
    echo "ok: federated $name"
  fi
done

exit "$fail"
