#!/usr/bin/env sh
# The alternating-pair protocol every performance claim (and every "nothing
# moved" claim) in CHANGES.md rests on, as one command: the parent ref and
# the working tree are each built once into bin/abpair/, every workload of
# BENCHMARK.json (or the ones named) is run N times per side — seed s for
# pair s, the side that goes first flipping with the seed — and one table
# comes out: per workload × end-to-end metric, the pairs the change won
# (ties count for neither), both medians, the parent's interquartile
# range, and a verdict by BENCHMARK.json's bound:
#   worse        the change's median is worse than the parent's by more
#                than the bound
#   unresolved   the parent's own spread (IQR) exceeds the bound, so the
#                runs cannot tell — unless every run of the change beats
#                every run of the parent, which reads "better"
#   inside bound otherwise ("better" when it also wins >= 9/10 of the pairs
#                by more than the parent's IQR — the rule for claiming a gain)
# Above the table: nn.matmul's address mod 64 in both binaries (the
# alignment trap of ROADMAP item 1 — unequal values void the timing rows of
# query_attention and write_path), the same for every //perf:hotpath
# function of either tree (scripts/hotpath_align.sh; a DIFFERS row voids
# the timing rows of the workloads that function serves), and the failed
# operations per side.
#
# The parent is built from a `git archive` of the ref — a plain directory,
# removed once its binary exists, nothing to prune from .git. Every run's full
# output is kept as bin/abpair/<workload>.<seed>.<side>.log and every
# number read from it in bin/abpair/runs.tsv (workload, seed, side, metric,
# value), so a CHANGES.md entry can quote any run. Reads BENCHMARK.json;
# writes nothing outside bin/ (gitignored).
# Usage: [PAIRS=10] ./scripts/abpair.sh <parent-ref> [workload…]
set -eu

cd "$(dirname "$0")/.."

[ $# -ge 1 ] || {
	echo "usage: [PAIRS=10] $0 <parent-ref> [workload…]" >&2
	exit 2
}
ref=$1
shift
pairs=${PAIRS:-10}
out=bin/abpair

# The contract: run length, workloads, and each end-to-end metric with its
# direction and bound (BENCHMARK.json is pretty-printed, one key a line).
spec=$(awk '
	/"run_seconds"/ { gsub(/[^0-9.]/, "", $2); print "seconds", $2 }
	/"workloads"/ { sect = "w" }
	/"end_to_end"/ { sect = "e" }
	/"per_layer"/ { sect = "" }
	/"name"/ { gsub(/[",]/, "", $2); if (sect == "w") print "workload", $2; else name = $2 }
	/"better"/ { gsub(/[",]/, "", $2); better = $2 }
	sect == "e" && /"bound"/ { gsub(/[^0-9.]/, "", $2); print "metric", name, better, $2 }
' BENCHMARK.json)
seconds=$(echo "$spec" | awk '$1 == "seconds" { print $2 }')
workloads=$*
[ -n "$workloads" ] || workloads=$(echo "$spec" | awk '$1 == "workload" { print $2 }')
metrics=$(echo "$spec" | awk '$1 == "metric" { print $2 }')

rm -rf "$out"
mkdir -p "$out/parent" "$out/scratch"
git archive "$ref" | tar -x -C "$out/parent"
echo "== building trajbench: parent ($ref) and change (working tree)"
(cd "$out/parent" && go build -o ../parent.bin ./benchmarks/trajbench)
go build -o "$out/change.bin" ./benchmarks/trajbench
for side in parent change; do
	addr=$(go tool nm "$out/$side.bin" | awk '$3 == "traj2hash/internal/nn.matmul" { print $1 }')
	echo "nn.matmul address mod 64, $side: $((0x${addr:-0} % 64)) (0x${addr:-symbol not found})"
done
./scripts/hotpath_align.sh -s . -s "$out/parent" "$out/parent.bin" "$out/change.bin"
rm -rf "$out/parent" # only the binary is needed; a Go tree under bin/ would be swept up by gofmt -l . and loc.sh

# run <workload> <seed> <side>: one untraced run; the contract's result
# line is the last line of its output.
run() {
	log=$out/$1.$2.$3.log
	"$out/$3.bin" --workload "$1" --seed "$2" --seconds "$seconds" --trace 0 \
		--dir "$out/scratch" >"$log" 2>&1 || echo "abpair: $3 run of $1 seed $2 exited non-zero (see $log)" >&2
	tail -n 1 "$log" | awk -v w="$1" -v s="$2" -v side="$3" -v names="$metrics attempted failed" '
		{
			n = split(names, name, " ")
			for (i = 1; i <= n; i++) {
				re = "\"" name[i] "\":(\\{\"value\":)?[-+0-9.eE]+"
				if (match($0, re)) {
					v = substr($0, RSTART, RLENGTH)
					sub(/.*:/, "", v)
					printf "%s\t%s\t%s\t%s\t%s\n", w, s, side, name[i], v
				}
			}
		}' >>"$out/runs.tsv"
}

for w in $workloads; do
	s=1
	while [ "$s" -le "$pairs" ]; do
		first=parent second=change
		[ $((s % 2)) -eq 1 ] || first=change second=parent
		echo "== $w pair $s/$pairs: $first, then $second"
		run "$w" "$s" "$first"
		run "$w" "$s" "$second"
		s=$((s + 1))
	done
done

echo
echo "$spec" | awk '$1 == "metric"' | awk '
	function sorted(src, n, dst,    i, j, v) {
		for (i = 1; i <= n; i++) {
			v = src[i]
			for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j + 1] = dst[j]
			dst[j + 1] = v
		}
	}
	function quantile(a, n, p,    h, lo) {
		h = (n - 1) * p + 1
		lo = int(h)
		if (lo >= n) return a[n]
		return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	FNR == NR { better[$2] = $3; bound[$2] = $4; order[++nm] = $2; next }
	{
		if (!($1 in seenw)) { seenw[$1] = 1; ws[++nw] = $1 }
		val[$1, $4, $3, $2] = $5
		if ($2 + 0 > seeds[$1]) seeds[$1] = $2 + 0
	}
	END {
		for (wi = 1; wi <= nw; wi++) {
			w = ws[wi]
			fp = fc = ap = ac = 0
			for (s = 1; s <= seeds[w]; s++) {
				fp += val[w, "failed", "parent", s]; ap += val[w, "attempted", "parent", s]
				fc += val[w, "failed", "change", s]; ac += val[w, "attempted", "change", s]
			}
			printf "%s: failed operations parent %d of %d, change %d of %d\n", w, fp, ap, fc, ac
		}
		printf "\n%-16s %-14s %6s %12s %12s %8s %12s %6s  %s\n", "workload", "metric", "wins", "parent med", "change med", "delta", "parent IQR", "bound", "verdict"
		for (wi = 1; wi <= nw; wi++) for (mi = 1; mi <= nm; mi++) {
			w = ws[wi]; m = order[mi]; n = 0; wins = losses = 0
			sign = (better[m] == "higher") ? -1 : 1
			for (s = 1; s <= seeds[w]; s++) {
				if (!((w, m, "parent", s) in val) || !((w, m, "change", s) in val)) continue
				n++
				p[n] = val[w, m, "parent", s]; c[n] = val[w, m, "change", s]
				if (sign * (c[n] - p[n]) < 0) wins++
				if (sign * (c[n] - p[n]) > 0) losses++
			}
			if (n == 0) continue
			sorted(p, n, ps); sorted(c, n, cs)
			pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
			iqr = quantile(ps, n, 0.75) - quantile(ps, n, 0.25)
			worse = sign * (cm - pm)      # > 0: the change is worse
			apart = (sign > 0) ? (cs[n] < ps[1]) : (cs[1] > ps[n])
			if (apart) verdict = "better (every run)"
			else if (iqr > bound[m] * pm) verdict = "unresolved"
			else if (worse > bound[m] * pm) verdict = "WORSE"
			else if (wins >= 0.9 * (wins + losses) && -worse > iqr) verdict = "better"
			else verdict = "inside bound"
			printf "%-16s %-14s %3d/%-2d %12.5g %12.5g %+7.1f%% %12.5g %5.0f%%  %s\n", w, m, wins, n, pm, cm, 100 * (cm - pm) / pm, iqr, 100 * bound[m], verdict
		}
	}
' - "$out/runs.tsv"
echo
echo "every run: $out/runs.tsv (logs beside it)"
