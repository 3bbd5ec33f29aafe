#!/usr/bin/env sh
# Non-test Go lines per package, the size measure the ROADMAP's "same
# behaviour from the least code" needle is read from: one
# find | xargs cat | wc -l pipeline per package directory, *_test.go
# excluded, benchmarks/ and testdata/ excluded (the benchmark is frozen
# and fixtures are data, not code). Printed by ci.sh so every CI log
# carries the table; compare two checkouts by diffing their outputs.
# Usage: ./scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

total=0
for dir in $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' ! -path '*/testdata/*' -exec dirname {} \; | sort -u); do
	n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
	printf '%6d  %s\n' "$n" "${dir#./}"
	total=$((total + n))
done
printf '%6d  total\n' "$total"
