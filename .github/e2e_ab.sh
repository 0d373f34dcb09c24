#!/usr/bin/env bash
# Same-runner A/B perf gate on the end-to-end benchmark (e2ebench/).
#
#   .github/e2e_ab.sh <base-dir> <head-dir>
#
# Both directories are checkouts of the repository (CI passes a
# `git worktree` of the pull request's base commit and the head
# checkout). For every workload in the head's BENCHMARK.json, the script
# runs two ABBA blocks (base, head, head, base, twice: four runs per
# side), each `--seed 7 --seconds 2 --trace 0` from its own tree's root,
# since e2ebench reads BENCHMARK.json from the working directory. It
# fails when
#   * any run is not `correct` (a failed output check, a sim_digest
#     mismatch, a panic), or
#   * head's median `wall_s`, `job_ms_p50` or `peak_rss_mb` is more than
#     MAX_RATIO times base's median.
#
# `setup_s` and `job_ms_tail` are not gated here; they are left to
# full-length A/B runs (BENCHMARK.json's run_seconds, 20 s). At 2 s per
# run they measure noise:
# `setup_s` on users_1m is about 0.5 ms, and in an A/A trial on a
# 2-vCPU VM its median ratio reached 1.38 and job_ms_tail's 1.26, where
# wall_s and job_ms_p50 stayed at or below 1.22 and peak_rss_mb at 1.00.
#
# Requires bash, jq and cargo. Each run's output is kept under
# <head-dir>/target/e2e-ab/.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <base-dir> <head-dir>" >&2
  exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)

SEED=7
SECONDS_PER_RUN=2
MAX_RATIO=1.5
GATED=(wall_s job_ms_p50 peak_rss_mb)

logs="$head/target/e2e-ab"
mkdir -p "$logs"

# run <tree> <side> <workload> <index>: one benchmark run, its output
# kept in the log directory; prints the result object (the last line).
run() {
  local tree=$1 side=$2 workload=$3 index=$4
  local log="$logs/$workload.$side.$index.log"
  (cd "$tree" && cargo run --offline --release --quiet --manifest-path e2ebench/Cargo.toml -- \
    --workload "$workload" --seed "$SEED" --seconds "$SECONDS_PER_RUN" --trace 0) >"$log" 2>&1 || true
  local last
  last=$(tail -n 1 "$log")
  if ! jq -e 'type == "object" and has("correct")' >/dev/null 2>&1 <<<"$last"; then
    echo '{"correct":false,"metrics":{}}'
  else
    printf '%s\n' "$last"
  fi
}

# median <metric> <result>...: the metric's median over the results,
# or null when no result carries it.
median() {
  local metric=$1
  shift
  printf '%s\n' "$@" | jq -s --arg m "$metric" \
    '[.[] | .metrics[$m].value // empty] | sort
     | if length == 0 then null
       elif length % 2 == 1 then .[length / 2 | floor]
       else (.[length / 2 - 1] + .[length / 2]) / 2 end'
}

failures=()
for workload in $(jq -r '.workloads[].name' "$head/BENCHMARK.json"); do
  if ! jq -e --arg w "$workload" 'any(.workloads[]; .name == $w)' "$base/BENCHMARK.json" >/dev/null; then
    echo "== $workload: not in the base's BENCHMARK.json, nothing to compare against"
    continue
  fi
  echo "== $workload"
  results_base=()
  results_head=()
  for _ in 1 2; do
    for side in base head head base; do
      if [ "$side" = base ]; then
        results_base+=("$(run "$base" base "$workload" "${#results_base[@]}")")
      else
        results_head+=("$(run "$head" head "$workload" "${#results_head[@]}")")
      fi
    done
  done
  for side in base head; do
    if [ "$side" = base ]; then results=("${results_base[@]}"); else results=("${results_head[@]}"); fi
    for i in "${!results[@]}"; do
      if [ "$(jq -r '.correct' <<<"${results[$i]}")" != true ]; then
        echo "FAILED $workload: $side run $i is not correct (see $logs/$workload.$side.$i.log)"
        failures+=("$workload $side run $i not correct")
      fi
    done
  done
  for metric in "${GATED[@]}"; do
    b=$(median "$metric" "${results_base[@]}")
    h=$(median "$metric" "${results_head[@]}")
    if [ "$b" = null ] || [ "$h" = null ]; then
      echo "FAILED $workload $metric: not measured (base $b, head $h)"
      failures+=("$workload $metric not measured")
      continue
    fi
    verdict=$(jq -rn --argjson b "$b" --argjson h "$h" --argjson max "$MAX_RATIO" \
      '(if $b > 0 then $h / $b elif $h > 0 then 1e9 else 1 end) as $r
       | "\($r * 1000 | round / 1000) \(if $r > $max then "REGRESSION" else "ok" end)"')
    printf '  %-12s base %12.4f  head %12.4f  ratio %s\n' "$metric" "$b" "$h" "$verdict"
    if [[ $verdict == *REGRESSION ]]; then
      failures+=("$workload $metric: head median $h vs base median $b (ratio ${verdict% *} > $MAX_RATIO)")
    fi
  done
done

if [ "${#failures[@]}" -gt 0 ]; then
  echo
  echo "perf gate FAILED:"
  printf '  %s\n' "${failures[@]}"
  exit 1
fi
echo
echo "perf gate passed: no gated median more than $MAX_RATIO x base"
