#!/usr/bin/env sh
# The alignment half of the //perf:hotpath contract, printed: the address
# mod 64 of every function marked //perf:hotpath in the non-test Go code,
# in each binary given. Text linked before a hot loop moves it, and a loop
# that lands on another offset inside its 64-byte line has read as a
# regression of up to +30 % in code nobody touched (ROADMAP item 1) — so
# the list is found, not kept: every marked function under the source
# trees (-s, default the repository), by its linker symbol, looked up with
# go tool nm. With two or more binaries, a function whose offset is not
# the same in all of them is flagged DIFFERS; "-" is a function a binary
# does not link (inlined into every caller, or not reached).
# Reads only; writes nothing.
# Usage: ./scripts/hotpath_align.sh [-s <source-dir>]... <binary>...
set -eu

root=$(dirname "$0")/..

usage() {
	echo "usage: $0 [-s <source-dir>]... <binary>..." >&2
	exit 2
}
srcs=
while getopts s: opt; do
	case $opt in
	s) srcs="$srcs $OPTARG" ;;
	*) usage ;;
	esac
done
shift $((OPTIND - 1))
[ $# -ge 1 ] || usage
[ -n "$srcs" ] || srcs=$root
module=$(awk '$1 == "module" { print $2; exit }' "$root/go.mod")

# The directive is the last line of a function's doc comment, so the first
# line after it that is not a comment is the func it marks.
syms=$(for src in $srcs; do
	(cd "$src" && find . -path ./bin -prune -o -path ./.git -prune -o -path '*/testdata' -prune -o \
		-name '*.go' ! -name '*_test.go' -print) | sort | while read -r f; do
		awk -v module="$module" -v file="$f" '
			FNR == 1 {
				hot = 0
				pkg = file
				sub(/^\.\//, "", pkg)
				if (pkg ~ /\//) { sub(/\/[^\/]*$/, "", pkg); pkg = module "/" pkg } else pkg = module
			}
			/^package main$/ { pkg = "main" }
			/^\/\/perf:hotpath([ \t]|$)/ { hot = 1; next }
			hot && /^\/\// { next }
			hot && /^func / {
				s = substr($0, 6)
				recv = ""
				if (s ~ /^\(/) {
					recv = substr(s, 2, index(s, ")") - 2)
					n = split(recv, part, " ")
					recv = part[n]
					sub(/\[.*\]/, "[...]", recv)
					s = substr(s, index(s, ")") + 2)
				}
				name = s
				sub(/[(\[].*/, "", name)
				if (recv ~ /^\*/) name = "(" recv ")." name
				else if (recv != "") name = recv "." name
				print pkg "." name
			}
			{ hot = 0 }
		' "$src/$f"
	done
done | sort -u)

{
	echo "$syms" | awk 'NF { print "sym", $1 }'
	i=1
	for bin in "$@"; do
		echo "label $i $(basename "$bin" .bin)"
		go tool nm "$bin" | awk -v i="$i" '{ print "addr", i, $3, $1 }'
		i=$((i + 1))
	done
} | awk -v nbin=$# '
	function mod64(hex,    lo, d, i, v) {
		lo = tolower(substr(hex, length(hex) - 1))
		v = 0
		for (i = 1; i <= length(lo); i++) {
			d = index("0123456789abcdef", substr(lo, i, 1)) - 1
			v = v * 16 + d
		}
		return v % 64
	}
	$1 == "sym" { order[++n] = $2; want[$2] = 1; next }
	$1 == "label" { label[$2] = $3; next }
	$1 == "addr" && ($3 in want) { off[$2, $3] = mod64($4) }
	END {
		printf "//perf:hotpath functions, address mod 64:\n  %-56s", "function"
		for (b = 1; b <= nbin; b++) printf " %9s", label[b]
		printf "\n"
		for (k = 1; k <= n; k++) {
			f = order[k]
			printf "  %-56s", f
			first = ""
			differs = 0
			for (b = 1; b <= nbin; b++) {
				v = ((b, f) in off) ? off[b, f] : "-"
				printf " %9s", v
				if (v == "-") continue
				if (first == "") first = v
				else if (v != first) differs = 1
			}
			printf "%s\n", differs ? "  DIFFERS" : ""
		}
	}
'
