#!/usr/bin/env sh
# Non-test Go lines per package, the size measure the ROADMAP's "same
# behaviour from the least code" needle is read from: one
# find | xargs cat | wc -l pipeline per package directory, *_test.go
# excluded, benchmarks/ and testdata/ excluded (the benchmark is frozen
# and fixtures are data, not code). Printed by ci.sh so every CI log
# carries the table. With --against <ref> the same count is taken over a
# `git archive` of that ref and the table becomes a diff — then, now and
# the delta per package that differs, and the totals — so a CHANGES.md
# entry can quote one command.
# Usage: ./scripts/loc.sh [--against <ref>]
set -eu

cd "$(dirname "$0")/.."

# count <tree>: "<lines> <package>" for every package directory of the tree.
count() {
	(
		cd "$1"
		for dir in $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' ! -path '*/testdata/*' -exec dirname {} \; | sort -u); do
			n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
			echo "$n ${dir#./}"
		done
	)
}

case "${1:-}" in
"")
	count . | awk '{ printf "%6d  %s\n", $1, $2; total += $1 } END { printf "%6d  total\n", total }'
	;;
--against)
	[ $# -eq 2 ] || {
		echo "usage: $0 [--against <ref>]" >&2
		exit 2
	}
	then=$(mktemp -d)
	trap 'rm -rf "$then"' EXIT
	git archive "$2" | tar -x -C "$then"
	{
		count "$then" | sed 's/^/then /'
		count . | sed 's/^/now /'
	} | awk -v ref="$2" '
		{ n[$1, $3] = $2; total[$1] += $2; pkg[$3] = 1 }
		END {
			printf "%6s %6s %6s  %s\n", ref, "now", "delta", "package"
			for (p in pkg)
				if (n["then", p] != n["now", p])
					printf "%6d %6d %+6d  %s\n", n["then", p], n["now", p], n["now", p] - n["then", p], p | "sort -k4"
			close("sort -k4")
			printf "%6d %6d %+6d  total\n", total["then"], total["now"], total["now"] - total["then"]
		}'
	;;
*)
	echo "usage: $0 [--against <ref>]" >&2
	exit 2
	;;
esac
