#!/usr/bin/env sh
# CI gate for the repository, in order:
#   1. gofmt cleanliness (including testdata fixtures)
#   2. trajlint — the stdlib-only analyzer suite enforcing the repo's
#      correctness contracts (see DESIGN.md "Static analysis & invariants"),
#      run once; its JSON findings are archived at
#      bin/trajlint-findings.json
#   3. go vet
#   4. go build (and, informational: nn.matmul's address mod 64 in the
#      trajbench binary, then every //perf:hotpath function's, from
#      scripts/hotpath_align.sh — see the alignment trap in ROADMAP item 1)
#   5. fault-injection + observability + durability scenarios under the
#      race detector — the failure-domain contracts (panic isolation,
#      deadlines, checkpoint rollback — for the paper model and, in
#      ./internal/baselines, the six baselines that inherit the same
#      training loop), the engine's mutation-under-search races
#      (TestWithinDuringCompaction), their visibility (injected
#      faults must move the obs counters; see DESIGN.md
#      "Observability"), and the crash-recovery parity suite (a crash
#      injected at every WAL write/fsync/rename must recover to an
#      answer-identical prefix; see DESIGN.md "Mutability &
#      durability") run first and fast, so a broken contract fails the
#      gate before the full suite spins up. The faultinject metrics
#      tests export a JSON snapshot artifact to bin/metrics.json
#      (METRICS_JSON_OUT).
#   6. encoder benchmark artifact — embed/hash ns/op, ops/sec, and allocs
#      for every registered encoder kind, exported to
#      bin/BENCH_encoders.json (BENCH_ENCODERS_OUT)
#   7. hotpath performance contracts — the perf rules (hotpathalloc,
#      hotpathbce, allocinloop) already ran in stage 2; here the
#      BenchmarkHotpath* suite runs with -benchmem and
#      cmd/benchjson exports bin/BENCH_hotpath.json and gates allocs/op
#      against scripts/hotpath_floors.json (allocs are exact, so unlike
#      ns/op they CAN fail the build; see DESIGN.md "Performance
#      contracts"). The suite includes the tape-free embedding path at
#      both shapes: BenchmarkHotpathEmbedAll (tinyConfig batch) and
#      BenchmarkHotpathEmbedAttention64 (one Embed at the paper shape)
#   8. trajlint benchmark artifact — whole-module analysis cost
#      (BenchmarkTrajlintTree), exported to bin/BENCH_trajlint.json
#   9. mutable-index benchmark artifact — add/delete/compaction/search-
#      with-tombstones and WAL append (single, and as a 64-record group:
#      BenchmarkMutableWALAppendBatch64, ns_per_op per group) / recovery
#      ns_per_op + allocs, exported to bin/BENCH_mutable.json
#      (informational, no floors)
#  10. fuzz smoke — FuzzReadFrame / FuzzLoadSnapshot (internal/wal),
#      FuzzHausdorffMatchesPlain (internal/dist), FuzzServeSearchBody
#      (internal/serve), FuzzLoadCheckpoint and FuzzLoadEncoder
#      (internal/core) for 10s each over the committed seed corpora
#      (internal/*/testdata/fuzz/):
#      frame/snapshot decoding never panics, torn-tail truncation never
#      misclassifies corruption, the Hausdorff kernel equals the plain
#      double loop bit for bit, any /search body is answered
#      200/400/503/504, a complete 200 with exactly min(k, Len) results,
#      and a checkpoint stream or an encoder container never panics its
#      loader and, once accepted, re-saves and loads back unchanged
#  11. serving smoke — a real traj2hashd daemon over a temp WAL dir,
#      started with a 250 ms batch window, is driven by cmd/trajload
#      three times: a lone-client pass whose p99 must stay under
#      100 ms (flush-when-idle: a search that meets an idle server
#      never waits for the window), a fixed-count concurrent run that
#      must meet a p99 latency bound, then an open-ended run SIGTERMed
#      mid-flight that must lose zero accepted requests (the
#      graceful-drain contract; see DESIGN.md "Serving layer"). The
#      concurrent run's latency quantiles are exported to
#      bin/BENCH_serving.json via cmd/benchjson
#  12. full test suite under the race detector (the engine's concurrent
#      Add/Search tests only mean something with -race, and so does
#      TestTrainingIsGOMAXPROCSInvariant, whose GOMAXPROCS=4 run puts a
#      training step's taped forwards on concurrent workers). It includes
#      the experiment goldens: internal/experiments' TestEndToEnd* compare
#      every table and figure, wall-clock columns masked, with
#      internal/experiments/testdata/<id>.golden (regenerate with
#      EXPERIMENTS_GOLDEN_OUT; see DESIGN.md "Per-experiment index")
#  13. benchmark artifacts published to the repo root (BENCH_*.json,
#      committed — the per-PR perf trajectory), the non-test
#      lines-of-code table per package (scripts/loc.sh — the size
#      trajectory the ROADMAP's design-quality needle is read from), and
#      a repo-hygiene check that generated outputs stay under bin/
#  14. unlinked code — scripts/unlinked.sh builds every main package
#      without inlining and fails on a function of internal/ or of a
#      main package that no binary links, unless
#      scripts/unlinked_keep.txt lists it with one of four reasons
#      (instrumentation, oracle, observable, roadmap), and on a stale
#      keep-list line (see DESIGN.md "Unlinked code")
#
# BENCH_obs — the instrumentation overhead guard (not a CI gate:
# wall-clock benchmarks are too noisy to fail a build on; run it when
# touching the obs package or the engine's metrics paths):
#   go test -bench 'SearchBatch(No)?Metrics' -benchmem -count 5 ./internal/engine
# BenchmarkSearchBatchMetrics must stay within 5% of
# BenchmarkSearchBatchNoMetrics (the nil-registry no-op path); see
# DESIGN.md "Observability".
#
# scripts/abpair.sh <parent-ref> [workload…] — the alternating-pair
# benchmark protocol (not a CI gate either: ten pairs of every workload
# are over an hour): builds trajbench from the ref and from the working
# tree, runs them in alternation and prints wins, medians, the parent's
# IQR and an inside-bound / unresolved / worse verdict per BENCHMARK.json
# metric, plus nn.matmul's and every //perf:hotpath function's alignment
# in both binaries. Run it before
# claiming, in CHANGES.md, that a number moved or did not.
# scripts/loc.sh --against <parent-ref> is the size needle as a diff.
# Usage: ./scripts/ci.sh [extra go test args]
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	echo "gofmt: the files above need formatting (run: gofmt -w .)"
	exit 1
fi

echo "== trajlint ./..."
# Build the linter into bin/ (gitignored) and run it once: the JSON
# findings (an empty array when clean) are both the gate and the
# artifact CI consumers read.
mkdir -p bin
go build -o bin/trajlint ./cmd/trajlint
lint_status=0
./bin/trajlint -json ./... >bin/trajlint-findings.json || lint_status=$?
case "$lint_status" in
0) ;;
1)
	cat bin/trajlint-findings.json
	echo "trajlint: findings — a correctness contract is violated. Each rule is documented in DESIGN.md 'Static analysis & invariants', including how to suppress deliberate sites with //lint:ignore <rule> <reason>; JSON artifact at bin/trajlint-findings.json"
	exit 1
	;;
*)
	echo "trajlint: the linter itself failed (exit $lint_status) — this is a tooling/invocation error, not a finding; see the message above"
	exit "$lint_status"
	;;
esac

echo "== go vet ./..."
go vet ./... || {
	echo "go vet: hint — vet failures here usually break an invariant the engine relies on; see DESIGN.md 'Static analysis & invariants' before working around the report"
	exit 1
}

echo "== go build ./..."
go build ./...
# Informational: the attention embed is sensitive to the 64-byte alignment
# of nn.matmul (ROADMAP item 1), and any text linked before internal/nn
# moves it. Printed so that an alignment shift shows in every CI log
# instead of being rediscovered as a "regression" in untouched code.
go build -o bin/trajbench ./benchmarks/trajbench
matmul_addr=$(go tool nm bin/trajbench | awk '$3 == "traj2hash/internal/nn.matmul" { print $1 }')
echo "nn.matmul address mod 64 in bin/trajbench: $((0x${matmul_addr:-0} % 64)) (0x${matmul_addr:-symbol not found})"
./scripts/hotpath_align.sh bin/trajbench

echo "== go test -race (fault-injection + observability + durability scenarios)"
METRICS_JSON_OUT="$PWD/bin/metrics.json" \
	go test -race -run 'Fault|Panic|Chaos|Deadline|Checkpoint|Resume|Diverg|Rollback|Cancel|EdgeCases|Metrics|Degraded|Timeout|Histogram|Tracer|SaveCheckpointFile|Crash|Recover|Torn|Durab|Mutat|Compaction' \
	. ./internal/engine ./internal/faultinject ./internal/core ./internal/baselines ./internal/obs ./internal/wal || {
	echo "fault injection: a failure-domain contract is broken — partial results, panic isolation, checkpoint rollback, crash-recovery parity, and their metric visibility are specified in DESIGN.md 'Failure semantics & graceful degradation', 'Observability', and 'Mutability & durability'"
	exit 1
}
[ -s bin/metrics.json ] || {
	echo "observability: the faultinject metrics stage did not export bin/metrics.json (TestInjectedPanicsMoveMetrics writes it when METRICS_JSON_OUT is set)"
	exit 1
}

echo "== encoder benchmark artifact (BENCH_encoders.json)"
# Perf trajectory of the encoder zoo: ns/op, ops/sec, and allocs for each
# registered encoder's embed and hash paths (see DESIGN.md "Encoder
# architecture"). Informational, not a gate — wall-clock numbers are too
# noisy to fail a build on — but the artifact must exist and be non-empty.
BENCH_ENCODERS_OUT="$PWD/bin/BENCH_encoders.json" \
	go test -run TestEncoderBenchArtifact ./internal/core || {
	echo "encoders: the benchmark artifact stage failed (TestEncoderBenchArtifact writes bin/BENCH_encoders.json when BENCH_ENCODERS_OUT is set)"
	exit 1
}
[ -s bin/BENCH_encoders.json ] || {
	echo "encoders: bin/BENCH_encoders.json missing or empty"
	exit 1
}

echo "== hotpath performance contracts (BENCH_hotpath.json)"
# The perf rules (hotpathalloc, hotpathbce, allocinloop) ran with the
# rest of trajlint in stage 2; this stage gates the allocations the hot
# paths make at run time.
go build -o bin/benchjson ./cmd/benchjson
# -benchtime 100x keeps the stage fast; the gated quantity (allocs/op)
# is exact in steady state, so a short run measures it as well as a
# long one. Each benchmark warms its reusable buffers before ResetTimer.
go test -bench 'BenchmarkHotpath' -benchmem -benchtime 100x -run '^$' \
	./internal/topk ./internal/hamming ./internal/engine ./internal/nn ./internal/eval ./internal/core ./internal/dist \
	>bin/bench_hotpath.txt || {
	cat bin/bench_hotpath.txt
	echo "perf contracts: the BenchmarkHotpath suite failed to run"
	exit 1
}
./bin/benchjson -floors scripts/hotpath_floors.json -out bin/BENCH_hotpath.json <bin/bench_hotpath.txt || {
	echo "perf contracts: allocation floors violated — a hot path allocates more than its recorded floor in scripts/hotpath_floors.json; artifact at bin/BENCH_hotpath.json"
	exit 1
}
[ -s bin/BENCH_hotpath.json ] || {
	echo "perf contracts: bin/BENCH_hotpath.json missing or empty"
	exit 1
}

echo "== trajlint benchmark artifact (BENCH_trajlint.json)"
# Full-module analysis cost (BenchmarkTrajlintTree): the
# parse+type-check+analyze bill of one trajlint run. Informational, no
# floors — but the artifact must exist so the per-PR tooling-cost
# trajectory is recorded.
go test -bench BenchmarkTrajlintTree -benchmem -benchtime 1x -run '^$' \
	./internal/analysis >bin/bench_trajlint.txt || {
	cat bin/bench_trajlint.txt
	echo "trajlint benchmarks: BenchmarkTrajlintTree failed to run"
	exit 1
}
./bin/benchjson -out bin/BENCH_trajlint.json <bin/bench_trajlint.txt || {
	echo "trajlint benchmarks: benchjson failed to parse bin/bench_trajlint.txt"
	exit 1
}
[ -s bin/BENCH_trajlint.json ] || {
	echo "trajlint benchmarks: bin/BENCH_trajlint.json missing or empty"
	exit 1
}

echo "== mutable-index benchmark artifact (BENCH_mutable.json)"
# Perf trajectory of the mutability + durability layers: engine
# add/delete/compaction/tombstone-search and WAL append/recovery.
# Informational, not a gate (no floors) — wall-clock numbers are too
# noisy to fail a build on — but the artifact must exist and be
# non-empty.
go test -bench 'BenchmarkMutable' -benchmem -benchtime 50x -run '^$' \
	./internal/engine ./internal/wal >bin/bench_mutable.txt || {
	cat bin/bench_mutable.txt
	echo "mutable benchmarks: the BenchmarkMutable suite failed to run"
	exit 1
}
./bin/benchjson -out bin/BENCH_mutable.json <bin/bench_mutable.txt || {
	echo "mutable benchmarks: benchjson failed to parse bin/bench_mutable.txt"
	exit 1
}
[ -s bin/BENCH_mutable.json ] || {
	echo "mutable benchmarks: bin/BENCH_mutable.json missing or empty"
	exit 1
}

echo "== fuzz smoke (10s per target)"
# Native Go fuzzing over the WAL frame parser and snapshot decoder, the
# Hausdorff kernel, the /search request decoder and the checkpoint and
# encoder loaders: the seed corpora under internal/*/testdata/fuzz/ are committed,
# and a short randomized run guards the no-panic /
# torn-tail-classification contracts, the kernel's bit equality with the
# plain double loop, the search handler's status and result-count
# contract and the checkpoint and encoder round trips on every CI pass (go fuzzing
# takes one target per invocation, hence one run each). New crashers land in the build
# cache, so this stage leaves the tree clean.
for target in wal:FuzzReadFrame wal:FuzzLoadSnapshot dist:FuzzHausdorffMatchesPlain serve:FuzzServeSearchBody core:FuzzLoadCheckpoint core:FuzzLoadEncoder; do
	pkg=./internal/${target%%:*} name=${target#*:}
	go test -fuzz "$name" -fuzztime 10s -run '^$' "$pkg" || {
		echo "fuzz: $name found a crasher or invariant violation — the failing input is under the go build cache's fuzz corpus; reproduce with: go test -run $name $pkg"
		exit 1
	}
done

echo "== serving smoke (traj2hashd + trajload -> BENCH_serving.json)"
# The serving layer's gate: a real daemon over a temp WAL dir, driven by
# the load generator. The batch window is set far above any search
# (250ms) so the lone-client pass proves it is a maximum hold: one
# client never overlaps its own flight, so every search must be
# dispatched at once and the p99 stays under 100ms. Run 2 (fixed count,
# 8 clients) must meet the p99 bound with zero errors; run 3
# (open-ended) is SIGTERMed mid-flight — trajload exits nonzero if any
# accepted request was dropped, and the daemon exits nonzero if the
# drain did not complete cleanly (in-flight requests finished, WAL
# fsynced and closed).
go build -o bin/traj2hashd ./cmd/traj2hashd
go build -o bin/trajload ./cmd/trajload
go build -o bin/traj2hash ./cmd/traj2hash
serve_tmp=$(mktemp -d)
./bin/traj2hash gen -city porto -scale tiny -out "$serve_tmp/ds.gob" -seed 7 >/dev/null
rm -f bin/traj2hashd.addr bin/bench_serving.txt
./bin/traj2hashd -addr 127.0.0.1:0 -addr-file bin/traj2hashd.addr \
	-data "$serve_tmp/ds.gob" -encoder geopth -scale tiny \
	-batch-window 250ms \
	-wal-dir "$serve_tmp/wal" >bin/traj2hashd.log 2>&1 &
serve_pid=$!
serve_wait=0
while [ ! -s bin/traj2hashd.addr ]; do
	serve_wait=$((serve_wait + 1))
	if [ "$serve_wait" -gt 100 ]; then
		cat bin/traj2hashd.log
		echo "serving: traj2hashd did not write its address file within 10s"
		kill "$serve_pid" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
serve_addr=$(cat bin/traj2hashd.addr)
./bin/trajload -addr "$serve_addr" -data "$serve_tmp/ds.gob" \
	-n 100 -c 1 -mix search=1 -max-p99 100ms || {
	cat bin/traj2hashd.log
	echo "serving: the lone-client run failed — a search on an idle server must be dispatched at once, not held for -batch-window (250ms here); see DESIGN.md 'Micro-batching'"
	kill "$serve_pid" 2>/dev/null || true
	exit 1
}
./bin/trajload -addr "$serve_addr" -data "$serve_tmp/ds.gob" \
	-n 300 -c 8 -max-p99 2s -bench-out bin/bench_serving.txt || {
	cat bin/traj2hashd.log
	echo "serving: the fixed-count load run failed — request errors or a p99 above 2s; see DESIGN.md 'Serving layer' for the admission/batching knobs"
	kill "$serve_pid" 2>/dev/null || true
	exit 1
}
./bin/trajload -addr "$serve_addr" -data "$serve_tmp/ds.gob" \
	-n 0 -c 8 -mix 'search=0.85,add=0.15' >/dev/null &
load_pid=$!
sleep 1
kill -TERM "$serve_pid"
wait "$load_pid" || {
	echo "serving: graceful drain dropped accepted requests (trajload exited nonzero) — the drain contract in DESIGN.md 'Serving layer' requires every accepted request to complete"
	exit 1
}
wait "$serve_pid" || {
	cat bin/traj2hashd.log
	echo "serving: traj2hashd did not exit cleanly after SIGTERM — drain must finish in-flight work and close the WAL"
	exit 1
}
./bin/benchjson -out bin/BENCH_serving.json <bin/bench_serving.txt || {
	echo "serving: benchjson failed to parse bin/bench_serving.txt"
	exit 1
}
[ -s bin/BENCH_serving.json ] || {
	echo "serving: bin/BENCH_serving.json missing or empty"
	exit 1
}
rm -rf "$serve_tmp"

echo "== go test -race ./... $* (includes the experiment goldens)"
go test -race "$@" ./...

echo "== benchmark artifacts -> repo root"
# Publish the per-PR perf trajectory: the bin/ artifacts this run
# produced are copied to the repo root where they are committed, so the
# roadmap's perf numbers have a recorded history instead of living only
# in gitignored build output.
for name in BENCH_hotpath BENCH_mutable BENCH_encoders BENCH_trajlint BENCH_serving; do
	[ -s "bin/$name.json" ] || {
		echo "artifacts: bin/$name.json missing or empty"
		exit 1
	}
	cp "bin/$name.json" "$name.json"
done

echo "== non-test Go lines per package (scripts/loc.sh)"
./scripts/loc.sh

echo "== repo hygiene (generated outputs stay under bin/)"
# Build artifacts belong in bin/ (gitignored). These paths have crept
# into scripts/ and the repo root before; fail loudly if they return.
hygiene_fail=0
for stray in \
	scripts/trajlint scripts/benchjson \
	scripts/metrics.json scripts/bench_hotpath.txt \
	scripts/bench_mutable.txt scripts/bench_trajlint.txt \
	trajlint benchjson metrics.json; do
	if [ -e "$stray" ]; then
		echo "hygiene: $stray is a generated output — it belongs under bin/ (delete it; bin/ is gitignored)"
		hygiene_fail=1
	fi
done
[ "$hygiene_fail" -eq 0 ] || exit 1

echo "== unlinked code (scripts/unlinked.sh)"
./scripts/unlinked.sh || {
	echo "unlinked: a function no binary links must be deleted, or listed in scripts/unlinked_keep.txt with its reason; see DESIGN.md 'Unlinked code'"
	exit 1
}

echo "CI OK"
