#!/usr/bin/env bash
# Interleaved A/B performance gate on the tree under test.
#
# Builds bench_micro twice — at a base revision and at a candidate
# revision, each from a clean `git archive` export — then runs N rounds
# over the gated cases, each round running both sides and alternating which
# runs first, and fails when the median of the per-round
# candidate/base time ratios of any case exceeds the threshold. This is
# the measurement protocol of docs/PERFORMANCE.md ("Measuring on a noisy
# box"): interleaving cancels slow load drift, the median discards rounds
# hit by a burst.
#
# Usage: tools/perf_ab.sh [--base=REV] [--candidate=REV] [--rounds=N]
#                         [--threshold=X] [--work=DIR]
#
#   --base        base revision (default: merge-base of HEAD and
#                 origin/main, else HEAD~1)
#   --candidate   candidate revision (default: HEAD)
#   --rounds      alternating rounds, >= 1 (default: 15)
#   --threshold   largest allowed median candidate/base ratio (default: 1.10)
#   --work        scratch directory for exports, builds and JSON
#                 (default: a fresh mktemp -d)
#
# Gated cases: BM_WalkAdvance/1000, BM_TopKQuery, BM_EngineQuery.
# Exit status: 0 pass, 1 regression past the threshold, 2 usage/build error.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
base=""
candidate="HEAD"
rounds=15
threshold=1.10
work=""
cases='BM_WalkAdvance/1000 BM_TopKQuery BM_EngineQuery'

for arg in "$@"; do
  case "${arg}" in
    --base=*) base="${arg#*=}" ;;
    --candidate=*) candidate="${arg#*=}" ;;
    --rounds=*) rounds="${arg#*=}" ;;
    --threshold=*) threshold="${arg#*=}" ;;
    --work=*) work="${arg#*=}" ;;
    -h | --help)
      sed -n '2,26p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *)
      echo "perf_ab.sh: unknown argument '${arg}' (try --help)" >&2
      exit 2
      ;;
  esac
done

if ! [[ "${rounds}" =~ ^[1-9][0-9]*$ ]]; then
  echo "perf_ab.sh: --rounds must be a positive integer, got '${rounds}'" >&2
  exit 2
fi

cd "${repo_root}"
if [[ -z "${base}" ]]; then
  base="$(git merge-base HEAD origin/main 2> /dev/null || git rev-parse HEAD~1)"
fi
base_sha="$(git rev-parse --verify "${base}^{commit}")"
candidate_sha="$(git rev-parse --verify "${candidate}^{commit}")"
work="${work:-$(mktemp -d)}"
mkdir -p "${work}"
echo "perf_ab.sh: base ${base_sha:0:12} vs candidate ${candidate_sha:0:12}," \
  "${rounds} rounds, threshold ${threshold}, work dir ${work}"

build() {
  local name="$1" sha="$2"
  # Called under `||`, where errexit is off: every step checks itself.
  rm -rf "${work:?}/${name}" || return
  mkdir -p "${work}/${name}/src" || return
  git archive "${sha}" | tar -x -C "${work}/${name}/src" || return
  cmake -S "${work}/${name}/src" -B "${work}/${name}/build" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSIMRANK_BUILD_TESTS=OFF \
    -DSIMRANK_BUILD_EXAMPLES=OFF -DSIMRANK_BUILD_FUZZERS=OFF > /dev/null ||
    return
  cmake --build "${work}/${name}/build" --target bench_micro \
    -j "$(nproc)" > /dev/null
}
build base "${base_sha}" || exit 2
build candidate "${candidate_sha}" || exit 2

filter="^($(echo "${cases}" | tr ' ' '|'))\$"
for ((round = 1; round <= rounds; ++round)); do
  # Alternate which side runs first, so neither always runs warm.
  order="base candidate"
  ((round % 2 == 0)) && order="candidate base"
  for name in ${order}; do
    "${work}/${name}/build/bench/bench_micro" \
      --benchmark_filter="${filter}" --benchmark_min_time=0.05 \
      --json="${work}/${name}.${round}.json" > "${work}/${name}.${round}.log" 2>&1
  done
  echo "perf_ab.sh: round ${round}/${rounds} done"
done

python3 - "${work}" "${rounds}" "${threshold}" ${cases} << 'EOF'
import json
import statistics
import sys

work, rounds, threshold = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
cases = sys.argv[4:]


def seconds(name, round_index):
    path = f"{work}/{name}.{round_index}.json"
    doc = json.load(open(path))
    return {case["name"]: case["wall_seconds"] for case in doc["cases"]}


ratios = {case: [] for case in cases}
for r in range(1, rounds + 1):
    base, cand = seconds("base", r), seconds("candidate", r)
    for case in cases:
        if case not in base or case not in cand:
            sys.exit(f"perf_ab.sh: {case} missing from round {r}")
        ratios[case].append(cand[case] / base[case])

failed = False
print(f"{'case':<22} {'median':>8} {'q1':>8} {'q3':>8} {'faster':>7}"
      "  candidate/base time")
for case in cases:
    values = sorted(ratios[case])
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0], values[0], values[0]))
    faster = f"{sum(v < 1.0 for v in values)}/{len(values)}"
    verdict = "ok" if median <= threshold else "REGRESSION"
    failed |= median > threshold
    print(f"{case:<22} {median:8.3f} {q1:8.3f} {q3:8.3f} {faster:>7}  {verdict}")
sys.exit(1 if failed else 0)
EOF
