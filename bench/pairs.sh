#!/usr/bin/env bash
# Runs n alternating pairs of the serving benchmark on two commits, with
# identical benchmark code and flags, for `bench compare`.
#
#   bash bench/pairs.sh <base-ref> <head-ref> <n> [seed] [workload...]
#
# Each ref is exported with `git archive` into bench/results/.trees/, and
# both checkouts get the head ref's bench/ and BENCHMARK.json, so only
# the code under test differs. Pair i runs base first when i is odd and
# head first when it is even. Reports land in bench/results/base-<sha>/
# and bench/results/head-<sha>/ (so a ref paired with itself measures
# the benchmark's own spread); compare them with:
#
#   bash bench/run.sh compare bench/results/base-<sha>/*.json bench/results/head-<sha>/*.json
#
# Every run measures BENCHMARK.json's run_seconds, the length the bounds
# were derived from. seed defaults to 1 (seed 2 is the hold-out for
# claims); workloads default to all.
set -euo pipefail

if [ $# -lt 3 ]; then
	sed -n '2,18p' "$0" >&2
	exit 2
fi
base=$1 head=$2 n=$3
seed=${4:-1}
shift $(($# < 4 ? $# : 4))
workloads=${*:-walk churn ingest migrate}

root=$(git rev-parse --show-toplevel)
cd "$root"
results="$root/bench/results"
trees="$results/.trees"

# export <ref>: print the directory holding <ref>'s tree with the head's
# benchmark.
export_tree() {
	local sha dir
	sha=$(git rev-parse --short "$1^{commit}")
	dir="$trees/$sha"
	rm -rf "$dir"
	mkdir -p "$dir"
	git archive "$sha" | tar -x -C "$dir"
	rm -rf "$dir/bench" "$dir/BENCHMARK.json"
	git archive "$head" bench BENCHMARK.json | tar -x -C "$dir"
	echo "$sha"
}

base_sha=$(export_tree "$base")
head_sha=$(export_tree "$head")
mkdir -p "$results/base-$base_sha" "$results/head-$head_sha"

run() { # run <side> <sha> <workload> <pair>
	local out="$results/$1-$2/$3-$(printf %02d "$4")"
	echo "pair $4: $1 $2 $3" >&2
	(cd "$trees/$2" && bash bench/run.sh --workload "$3" --seed "$seed" --trace 0 \
		--commit "$2" --out "$out.json" >"$out.log" 2>&1) || echo "run failed, see $out.log" >&2
}

for i in $(seq 1 "$n"); do
	for w in $workloads; do
		if [ $((i % 2)) -eq 1 ]; then
			run base "$base_sha" "$w" "$i"
			run head "$head_sha" "$w" "$i"
		else
			run head "$head_sha" "$w" "$i"
			run base "$base_sha" "$w" "$i"
		fi
	done
done
echo "bash bench/run.sh compare bench/results/base-$base_sha/*.json bench/results/head-$head_sha/*.json"
