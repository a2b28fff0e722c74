#!/usr/bin/env bash
# Benchmark gate: measures HEAD against a base commit on rcbtbench's
# classify-open workload and fails on a failed run or a regressed
# metric. CI runs it on every pull request against the base branch.
#
#   bash scripts/benchgate.sh BASE        # or: make benchgate BASE=<rev>
#
# BASE and HEAD are each checked out into a clone of their own under
# .bench_build/benchgate/, and each builds its own rcbtbench with
# benchmark/run.sh. HEAD is what gets measured, so commit a change
# before gating it. The checkouts are shared clones, not git worktrees:
# the go command stamps a build with the commit of the nearest .git
# directory, and a worktree has only a .git file, so its records would
# name the enclosing checkout's commit.
#
# The gate runs ten alternating pairs of
# `run.sh --workload classify-open --seconds 10`: the base first on odd
# pairs and HEAD first on even ones, with seed N for both runs of
# pair N, so host drift falls on both sides alike. The records go to
# base.jsonl and change.jsonl in .bench_build/benchgate/, and the base's
# `rcbtbench -compare` writes compare.txt there; the base judges, so a
# change cannot loosen the verdicts it is judged by. The gate fails when
# a run exits non-zero (a failed request, a wrong answer or a failed
# build) or a row is `regressed`. An `unresolved` row means the runs
# spread too widely to tell, and passes.
set -euo pipefail

if [ $# -ne 1 ] || [ -z "$1" ]; then
	echo "usage: bash scripts/benchgate.sh BASE   (or: make benchgate BASE=<rev>)" >&2
	exit 2
fi
cd "$(git rev-parse --show-toplevel)"
base=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify 'HEAD^{commit}')
dir="${PWD}/.bench_build/benchgate"
pairs=10

remove_checkouts() {
	rm -rf "${dir:?}/base" "${dir:?}/change"
}
remove_checkouts
mkdir -p "${dir}"
rm -f "${dir}/base.jsonl" "${dir}/change.jsonl" "${dir}/compare.txt"
trap remove_checkouts EXIT
checkout() { # side rev
	git clone --quiet --shared --no-checkout . "${dir}/$1"
	git -C "${dir}/$1" checkout --quiet --detach "$2"
}
checkout base "${base}"
checkout change "${change}"
echo "benchgate: base ${base}, change ${change}, ${pairs} pairs of classify-open"

failed=0
for seed in $(seq 1 "${pairs}"); do
	order="base change"
	if [ $((seed % 2)) -eq 0 ]; then
		order="change base"
	fi
	for side in ${order}; do
		echo "benchgate: pair ${seed}, ${side}"
		if ! (cd "${dir}/${side}" && bash benchmark/run.sh --workload classify-open \
			--seconds 10 --seed "${seed}" --out "${dir}/${side}.jsonl"); then
			echo "benchgate: pair ${seed}: the ${side} run failed" >&2
			failed=$((failed + 1))
		fi
	done
done

"${dir}/base/.bench_build/rcbtbench" -compare "${dir}/base.jsonl" "${dir}/change.jsonl" |
	tee "${dir}/compare.txt"
regressed=$(grep -c ' regressed$' "${dir}/compare.txt" || true)
if [ "${failed}" -ne 0 ] || [ "${regressed}" -ne 0 ]; then
	echo "benchgate: FAIL: ${failed} failed runs, ${regressed} regressed rows" >&2
	exit 1
fi
echo "benchgate: pass: no failed run, no regressed row"
