#!/usr/bin/env bash
# Behaviour lock: runs every virtual-time bench output from two build
# trees and diffs them.
#
#   bench/behaviour_lock.sh BASE_BUILD NEW_BUILD [OUT_DIR]
#
# BASE_BUILD and NEW_BUILD are CMake build directories of this repo.
# Per bench, OUT_DIR/{base,new} (default: a fresh temporary directory)
# get its stdout, the JSON it was asked to write, its exit code and its
# stderr (kept for reading, never compared).  Each tree runs at most two
# benches at a time; the two trees run side by side.  bench_micro and
# bench_pipeline measure host wall-clock time and are skipped; so are
# the lines of a JSON output that carry a "host_*" field (host
# wall-clock measurements beside virtual ones), which are deleted from
# both trees' copies before the comparison.
#
# Exits 0 when every compared file is identical and every bench exited
# 0; 1 on any difference or failing bench; 2 on a usage error.
set -u

if (( $# < 2 || $# > 3 )); then
  echo "usage: $0 BASE_BUILD NEW_BUILD [OUT_DIR]" >&2
  exit 2
fi
for build in "$1" "$2"; do
  if [[ ! -x $build/bench/bench_fig03_load_imbalance ]]; then
    echo "$0: $build holds no built benches" >&2
    exit 2
  fi
done
base=$(cd "$1" && pwd)
new=$(cd "$2" && pwd)
out=${3:-$(mktemp -d -t behaviour_lock.XXXXXX)}
mkdir -p "$out"
out=$(cd "$out" && pwd)

# One job per line: <output stem> <bench> [args...].  Jobs run inside
# their tree's output directory, so relative output paths (and any bench
# that echoes them) read the same in both trees.  Slowest first.
jobs_list() {
  cat <<'EOF'
fig11 bench_fig11_offloading
fig11_metrics bench_fig11_offloading --metrics-out=fig11_metrics.json
fig08 bench_fig08_wirespeed_capture
fig12 bench_fig12_threshold_sweep
fig14 bench_fig14_scalability
fig13 bench_fig13_forwarding
fig10 bench_fig10_rm_product
fig09 bench_fig09_burst_buffering
tab01 bench_tab01_drop_rates
tab01_metrics bench_tab01_drop_rates --metrics-out=tab01_metrics.json
tab02 bench_tab02_engine_matrix
fig03 bench_fig03_load_imbalance
fig03_metrics bench_fig03_load_imbalance --metrics-out=fig03_metrics.json
ablation_design bench_ablation_design
ablation_steering bench_ablation_steering
ablation_timestamp bench_ablation_timestamp
ext_40ge bench_ext_40ge
ext_dpdk bench_ext_dpdk
spool_drain bench_store_spool --drain-compare=spool_drain.json
spool_metrics bench_store_spool --metrics-out=spool_metrics.json
fig14_tenant bench_fig14_scalability --tenants=2 --fairness-only --out=fig14_tenant.json
latency bench_latency --out=latency.json
EOF
}

run_tree() {
  local build=$1 dir=$2 running=0 stem bench args
  mkdir -p "$dir"
  while read -r stem bench args; do
    if (( running >= 2 )); then
      wait -n
      running=$((running - 1))
    fi
    (
      cd "$dir" || exit
      # shellcheck disable=SC2086  # args are whitespace-free flags
      "$build/bench/$bench" $args > "$stem.stdout" 2> "$stem.stderr"
      echo $? > "$stem.exit"
    ) &
    running=$((running + 1))
  done < <(jobs_list)
  wait
  sed -i '/"host_/d' "$dir"/*.json
}

start=$SECONDS
echo "behaviour lock: base=$base new=$new out=$out"
run_tree "$base" "$out/base" &
run_tree "$new" "$out/new" &
wait

status=0
# Names every file that differs or exists in one tree only.
diff -rq --exclude='*.stderr' "$out/base" "$out/new" || status=1
for failed in $(grep -lvx 0 "$out"/base/*.exit "$out"/new/*.exit); do
  echo "non-zero exit: ${failed#"$out"/}"
  status=1
done

if (( status == 0 )); then
  echo "behaviour lock: identical ($((SECONDS - start)) s)"
else
  echo "behaviour lock: DIFFERENT ($((SECONDS - start)) s)"
fi
exit "$status"
