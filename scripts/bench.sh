#!/usr/bin/env bash
# Regenerate the committed benchmark artifacts.
#
# Runs the artifact-writing ablation studies (all but hotpath are
# deterministic in the seed — every number is simulated device time, so
# the JSON is identical on any host) and writes, at the repo root:
#   BENCH_frontend.json — sim qps, hit ratio, p99 sim queue wait, and
#     coalesced/stolen counts per front-end config.
#   BENCH_arbiter.json  — static vs adaptive aggregate hit ratio plus the
#     per-epoch grant/priority log under the flipping skewed workload.
#   BENCH_wear.json     — hit ratio, corruption-shed rate, and re-fetch
#     radio bytes/energy across the wear-threshold x allocation sweep.
#   BENCH_population.json — the 1M-user streamed-day diurnal time series
#     plus O(users) residency counters. Always runs at full scale: the
#     million-user population is the point of the study.
#   BENCH_peers.json    — cooperative peer cells vs the solo baseline:
#     hit ratio, peer serves, false-positive probes, and radio vs
#     peer-link energy across the cell-size x summary-bits x skew sweep.
#   BENCH_hotpath.json  — wall-clock ns/lookup (median and spread over
#     rounds) and qps at 1/8/32 threads, locked (OrderedRwLock) vs
#     lock-free (AtomicTable mirror), with the host's core count and
#     oversubscribed points flagged. Unlike
#     every other artifact this one is HOST-DEPENDENT (real time, the
#     workspace's one R2 carve-out) and is committed as a trajectory,
#     not a reproducible number. Committed at test scale: ~20k cached
#     pairs is the paper's pocket-sized community cache; at DRAM-bound
#     sizes both paths converge on memory latency.
#
# Usage: scripts/bench.sh [--full | --check]
#   (no flag)  regenerate every artifact at the committed scales: test
#              scale, except the population study at full scale.
#   --full     run the paper-scale sweeps instead (not what is committed).
#   --check    regenerate every deterministic artifact (all but hotpath)
#              into a temp dir and byte-compare it with the committed
#              file; exits 1 naming each stale artifact. check.sh and CI
#              run this, so an artifact cannot silently drift.
set -euo pipefail
cd "$(dirname "$0")/.."

scale="test"
check=false
case "${1:-}" in
  "") ;;
  --full) scale="full" ;;
  --check) check=true ;;
  *)
    echo "usage: scripts/bench.sh [--full | --check]" >&2
    exit 2
    ;;
esac

# run_study <study> <scale> <out>
run_study() {
  cargo run --release -q -p pocket-bench --bin ablations -- \
    --study "$1" --scale "$2" --seed 2011 --out "$3"
}

# The deterministic artifacts as study:scale, in generation order.
deterministic=(
  "frontend:${scale}"
  "arbiter:${scale}"
  "wear:${scale}"
  "population:full"
  "peers:${scale}"
)

if [[ "${check}" == true ]]; then
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' EXIT
  stale=0
  for entry in "${deterministic[@]}"; do
    study="${entry%%:*}"
    artifact="BENCH_${study}.json"
    run_study "${study}" "${entry#*:}" "${tmp}/${artifact}" > /dev/null
    if cmp -s "${tmp}/${artifact}" "${artifact}"; then
      echo "ok     ${artifact}"
    else
      echo "STALE  ${artifact} (regenerate with scripts/bench.sh):"
      diff "${artifact}" "${tmp}/${artifact}" | head -20 || true
      stale=1
    fi
  done
  exit "${stale}"
fi

for entry in "${deterministic[@]}"; do
  study="${entry%%:*}"
  run_study "${study}" "${entry#*:}" "BENCH_${study}.json"
done
run_study hotpath test BENCH_hotpath.json
