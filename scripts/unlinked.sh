#!/usr/bin/env sh
# Unlinked-code gate: every function declared in a non-test file of
# internal/ or of a main package must be linked into at least one of
# the module's main binaries, or be named in scripts/unlinked_keep.txt
# with the reason it stays. Only this module can import internal/, so a
# function that no binary links is reached by tests alone.
#
# The evidence is the linker's: every main package is built with
# -gcflags=all=-l (no inlining, so a call that was inlined away still
# shows) and the text symbols of all binaries are merged. A main
# package's own symbols ("main.f") are renamed to its import path, so
# each one is checked against its own binary only. Type parameters are
# stripped on both sides: (*arena[go.shape.float64]).take in the binary
# matches func (a *arena[T]) take in the source.
#
# Keep-list lines are "symbol<TAB>reason". The symbol is a function as
# the linker names it, without the module prefix (internal/nn.(*Tensor).At),
# or a package path (internal/faultinject), which keeps every unlinked
# function of that package. The reason is mandatory and starts with one
# of the four reasons a function may stay unlinked:
#   instrumentation: test instrumentation that tests import
#   oracle:          the reference a test checks live code against
#   observable:      a small accessor or marker of a live type, read by
#                    tests or by a type assertion
#   roadmap:         kept for the open ROADMAP item that decides its fate
# Blank lines and lines starting with # are ignored. The gate fails on an
# unlinked function that is not listed, and on a listed one (or package)
# that is now linked or no longer declared, so the list cannot go stale.
# Usage: ./scripts/unlinked.sh
set -eu
export LC_ALL=C # one collation for sort and comm

cd "$(dirname "$0")/.."

keep=scripts/unlinked_keep.txt
module=$(go list -m)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# stripparams: delete every balanced [...] from the input lines.
stripparams='{
	out = ""; depth = 0
	for (i = 1; i <= length($0); i++) {
		c = substr($0, i, 1)
		if (c == "[") depth++
		else if (c == "]") depth--
		else if (depth == 0) out = out c
	}
	print out
}'

mains=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
for pkg in $mains; do
	go build -gcflags=all=-l -o "$tmp/bin" "$pkg"
	go tool nm "$tmp/bin" | awk -v pkg="$pkg" '
		$2 == "T" || $2 == "t" {
			s = $0
			sub(/^ *[0-9a-f]+ [Tt] /, "", s)
			if (s ~ /^main\./) s = pkg substr(s, 5)
			print s
		}'
done | awk "$stripparams" | sed "s|^$module/||" | sort -u >"$tmp/linked"

# One "<import path> <file>" line per non-test file, then one symbol per
# top-level func declaration, named as the linker names it.
go list -f '{{$p := .ImportPath}}{{$d := .Dir}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}
{{end}}' ./internal/... $mains | while read -r pkg file; do
	awk -v pkg="${pkg#"$module"/}" '
		/^func / {
			s = substr($0, 6)
			recv = ""
			if (s ~ /^\(/) {
				close_at = index(s, ")")
				r = substr(s, 2, close_at - 2)
				s = substr(s, close_at + 1)
				sub(/^ +/, "", s)
				gsub(/\[[^]]*\]/, "", r)
				n = split(r, f, " ")
				typ = f[n]
				recv = (typ ~ /^\*/) ? "(" typ ")." : typ "."
			}
			match(s, /^[A-Za-z_0-9]+/)
			name = substr(s, 1, RLENGTH)
			if (recv == "" && (name == "init" || name == "_")) next
			print pkg "." recv name
		}' "$file"
done | sort -u >"$tmp/declared"

comm -23 "$tmp/declared" "$tmp/linked" >"$tmp/unlinked"

status=0
awk -F '\t' '
	/^#/ || /^$/ { next }
	NF != 2 || $2 !~ /^(instrumentation|oracle|observable|roadmap): ./ {
		printf "%s:%d: want \"symbol<TAB>reason\", the reason starting with instrumentation:, oracle:, observable: or roadmap:\n", FILENAME, FNR
		bad = 1
	}
	END { exit bad }' "$keep" || status=1
grep -v -e '^#' -e '^$' "$keep" | cut -f1 | sort >"$tmp/kept"
if [ -n "$(uniq -d "$tmp/kept")" ]; then
	uniq -d "$tmp/kept" | sed "s|^|$keep: listed twice: |"
	status=1
fi
sort -u -o "$tmp/kept" "$tmp/kept"

# A function is covered by its own line or by its package's line; a
# line is live while it names an unlinked function or the package of one.
sed 's/\..*//' "$tmp/unlinked" | sort -u >"$tmp/pkgs"
missing=$(awk 'FILENAME == ARGV[1] { kept[$0] = 1; next }
	{ pkg = $0; sub(/\..*/, "", pkg) }
	!($0 in kept) && !(pkg in kept)' "$tmp/kept" "$tmp/unlinked")
if [ -n "$missing" ]; then
	echo "unlinked: no binary links these functions and $keep does not list them;"
	echo "delete each one, or list it with the reason it stays:"
	echo "$missing" | sed 's/^/  /'
	status=1
fi
stale=$(sort -u "$tmp/unlinked" "$tmp/pkgs" | comm -13 - "$tmp/kept")
if [ -n "$stale" ]; then
	echo "unlinked: these $keep lines are stale (the function is now linked or no longer declared); remove them:"
	echo "$stale" | sed 's/^/  /'
	status=1
fi
[ "$status" -eq 0 ] && echo "unlinked: $(wc -l <"$tmp/unlinked") unlinked functions, each listed in $keep"
exit "$status"
