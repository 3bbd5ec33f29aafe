#!/usr/bin/env sh
# Full benchmark pass: build the runner once into bin/, run every workload
# untraced (REPS times, a different seed each time) and then traced (once),
# and collect everything in bin/BENCHMARK_results.json. Per-workload span
# dumps land in bin/trace_<workload>.json. Nothing is written outside bin/.
# A run that fails a correctness check exits non-zero and stops the pass.
#
#   ./benchmarks/run.sh                       # REPS=3 RUN_SECONDS=30 SEED=1
#   REPS=10 OUT=bin/A.json ./benchmarks/run.sh
#   REPS=10 OUT=bin/B.json ./benchmarks/run.sh
#   ./bin/trajbench -compare bin/A.json bin/B.json
#
# The untraced runs go round the workloads, so that a slow quarter of an
# hour on the host is spread over all four instead of landing on one. With
# the defaults a pass takes about 10 minutes on two cores, with REPS=10
# about 27. Two passes to be compared use the same SEED: the metrics that
# are counts (hr10, disk_bytes_per_user_byte) are compared seed by seed.
set -eu

cd "$(dirname "$0")/.."

REPS="${REPS:-3}"
RUN_SECONDS="${RUN_SECONDS:-30}"
SEED="${SEED:-1}"
OUT="${OUT:-bin/BENCHMARK_results.json}"
WORKLOADS="query_attention scan_100k serve_mixed write_path"

mkdir -p bin
go build -o bin/trajbench ./benchmarks/trajbench
rm -f "$OUT"

rep=0
while [ "$rep" -lt "$REPS" ]; do
	for w in $WORKLOADS; do
		./bin/trajbench --workload "$w" --seed "$((SEED + rep))" --seconds "$RUN_SECONDS" --trace 0 --out "$OUT"
	done
	rep=$((rep + 1))
done
for w in $WORKLOADS; do
	./bin/trajbench --workload "$w" --seed "$SEED" --seconds "$RUN_SECONDS" --trace 1 --out "$OUT"
done
echo "results: $OUT   traces: bin/trace_<workload>.json"
