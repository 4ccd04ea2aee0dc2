#!/usr/bin/env bash
# Runs every workload once per seed (end-to-end pass), appends the records to
# a file and prints each metric's spread against its bound:
#
#	bash benchmark/suite.sh runs-a.jsonl          # ten seeds, 1..10
#	bash benchmark/suite.sh runs-b.jsonl 10 1     # the same again
#	bash benchmark/run.sh -compare runs-a.jsonl runs-b.jsonl
#
# Seeds are the outer loop, so each workload's runs are spread over the whole
# session and see the machine's slow drift, as the acceptance runs do.
set -euo pipefail

out="${1:?usage: suite.sh OUT.jsonl [runs] [first-seed]}"
runs="${2:-10}"
first="${3:-1}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

for ((i = 0; i < runs; i++)); do
	for w in ec-steady vc-steady failover-matrix serve-failover detect-1024; do
		bash "$here/run.sh" --workload "$w" --seed $((first + i)) --trace 0 --out "$out" >/dev/null || echo "run failed: $w seed $((first + i))" >&2
	done
done
bash "$here/run.sh" -compare "$out"
