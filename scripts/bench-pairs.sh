#!/usr/bin/env bash
# Alternating benchmark pairs against a reference commit — the procedure
# behind every timing claim in CHANGES.md, which asks for a gain to hold in
# pair after pair rather than in one run of each side.
#
#   scripts/bench-pairs.sh REF [N] [WORKLOADS] [SEED]   (make bench-pairs REF=… N=… WORKLOADS=a,b SEED=7)
#
# REF is archived into .bench_build/ref/ (so it builds from its own source,
# as the BENCHMARK.json pipeline does) and the working tree is the change.
# Each of the N pairs runs `bash bench/run.sh` once per side, odd pairs the
# parent first, even pairs the change first, so drift of the machine falls
# on both sides alike. SEED, when given, is passed to both sides as --seed,
# so a claim can be re-read on instances other than the default seed's.
# Every results.json is kept under .bench_build/pairs/.
# Printed: `bench/run.sh --compare parent_i change_i` per pair, then per
# (workload, end-to-end metric of BENCHMARK.json) both sides' medians, the
# median of the per-pair ratios change/parent, the pairs the change won
# (ties count for neither side), the parent's quartiles and a verdict:
#   gain        the change won at least 9 in 10 pairs, and the medians
#               differ in its favour by more than the parent's quartile
#               distance (its own run-to-run spread);
#   loss (in bound)    the same with the sides swapped, the change's median
#                      worse than the parent's by at most the metric's
#                      BENCHMARK.json bound;
#   loss (past bound)  such a loss by more than the bound;
#   unresolved         anything else.
# A claim is read off its one row. The summary ends with one line per exact
# metric (load_max, load_over_linear, rounds, comm_tuples, dispatch_regret,
# failed_frac): "identical in N/N pairs", or the first pair and workload
# where parent and change differ, with both values. Nothing under bench/ is
# touched.
set -euo pipefail

ref=${1:?usage: scripts/bench-pairs.sh REF [N] [WORKLOADS] [SEED]}
n=${2:-10}
workloads=${3:-}
seed=${4:-}

root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
pairs=$build/pairs
rm -rf "$build/ref" "$pairs"
mkdir -p "$build/ref" "$pairs"
git -C "$root" archive "$ref" | tar -x -C "$build/ref"

# side <name> <checkout> <pair>: one full run of that checkout's benchmark.
side() {
	bash "$2/bench/run.sh" ${workloads:+--workload "$workloads"} ${seed:+--seed "$seed"} --out "$pairs/$1_$3" > "$pairs/$1_$3.log"
}

for i in $(seq 1 "$n"); do
	if [ $((i % 2)) -eq 1 ]; then
		side parent "$build/ref" "$i"
		side change "$root" "$i"
	else
		side change "$root" "$i"
		side parent "$build/ref" "$i"
	fi
	echo "== pair $i of $n"
	# --compare exits 1 on a "worse" verdict; the summary still wants the rest.
	bash "$root/bench/run.sh" --compare "$pairs/parent_$i/results.json" "$pairs/change_$i/results.json" |
		tee "$pairs/compare_$i.txt" || true
done

# The summary reads the compare tables back: rows are
#   workload metric old new change bound verdict
# and the direction and bound of each end-to-end metric come from
# BENCHMARK.json.
echo "== summary over $n pairs: ratio = change / parent"
awk '
# quantile q of a[1..m], linear between the order statistics around
# position 1 + (m-1)·q: the median at q = 0.5, the quartiles at 0.25/0.75.
function quantile(a, m, q,    i, j, t, s, h, lo) {
	for (i = 1; i <= m; i++) s[i] = a[i]
	for (i = 2; i <= m; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j+1] = s[j]; s[j+1] = t }
	h = 1 + (m - 1) * q; lo = int(h)
	return lo >= m ? s[m] : s[lo] + (h - lo) * (s[lo+1] - s[lo])
}
BEGIN {
	ne = split("load_max load_over_linear rounds comm_tuples dispatch_regret failed_frac", exactNames, " ")
	for (e = 1; e <= ne; e++) exact[exactNames[e]] = 1
}
FILENAME ~ /BENCHMARK.json$/ {
	if ($0 ~ /"end_to_end"/) e2e = 1
	if ($0 ~ /"per_layer"/) e2e = 0
	if (e2e && $1 == "\"name\":") { name = $2; gsub(/[",]/, "", name) }
	if (e2e && $1 == "\"better\":") { dir = $2; gsub(/[",]/, "", dir); better[name] = dir }
	if (e2e && $1 == "\"bound\":") { b = $2; gsub(/[",]/, "", b); bound[name] = b + 0 }
	next
}
NF == 7 && ($2 in better) && $7 ~ /^(better|worse|same|unresolved)$/ {
	k = $1 SUBSEP $2
	if (!(k in cnt)) keys[++nk] = k
	c = ++cnt[k]
	old[k, c] = $3; new[k, c] = $4
}
# Exact metrics are judged by their verdict, which compare.go takes from the
# unrounded values; the change column is empty when the parent reads 0.
$2 in exact && $NF ~ /^(better|worse|same)$/ {
	pair = FILENAME; sub(/.*compare_/, "", pair); sub(/\.txt$/, "", pair); pair += 0
	inPair[$2, pair] = 1
	if ($NF != "same" && !(($2, pair) in differs)) {
		differs[$2, pair] = 1
		if (!($2 in firstPair) || pair < firstPair[$2]) { firstPair[$2] = pair; firstAt[$2] = $1 ": parent " $3 ", change " $4 }
	}
}
END {
	printf "%-16s %-18s %12s %12s %8s %6s %12s %12s %s\n", "workload", "metric", "parent_med", "change_med",
		"ratio", "won", "parent_q1", "parent_q3", "verdict"
	for (q = 1; q <= nk; q++) {
		k = keys[q]; split(k, wm, SUBSEP); m = cnt[k]; won = 0; lost = 0; nr = 0
		lower = better[wm[2]] == "lower"
		for (i = 1; i <= m; i++) {
			o[i] = old[k, i]; c2[i] = new[k, i]
			if (o[i] != 0) r[++nr] = c2[i] / o[i]
			if (lower ? c2[i] < o[i] : c2[i] > o[i]) won++
			if (lower ? c2[i] > o[i] : c2[i] < o[i]) lost++
		}
		ratio = nr ? sprintf("%.3f", quantile(r, nr, 0.5)) : "-"
		pm = quantile(o, m, 0.5); cm = quantile(c2, m, 0.5)
		q1 = quantile(o, m, 0.25); q3 = quantile(o, m, 0.75)
		gap = lower ? pm - cm : cm - pm # > 0: the change is better
		verdict = "unresolved"
		if (10 * won >= 9 * m && gap > q3 - q1) verdict = "gain"
		# A loss is in bound when the median of the change is worse than the
		# median of the parent by at most the bound, a fraction of the latter.
		if (10 * lost >= 9 * m && -gap > q3 - q1)
			verdict = -gap <= bound[wm[2]] * (pm < 0 ? -pm : pm) ? "loss (in bound)" : "loss (past bound)"
		printf "%-16s %-18s %12.6g %12.6g %8s %3d/%-2d %12.6g %12.6g %s\n", wm[1], wm[2], pm, cm,
			ratio, won, m, q1, q3, verdict
	}
	for (e = 1; e <= ne; e++) {
		x = exactNames[e]; total = 0; same = 0
		for (k in inPair) {
			split(k, xp, SUBSEP)
			if (xp[1] != x) continue
			total++
			if (!(k in differs)) same++
		}
		if (x in firstPair)
			printf "exact %-18s identical in %d/%d pairs; first differs in pair %d, %s\n", x, same, total, firstPair[x], firstAt[x]
		else
			printf "exact %-18s identical in %d/%d pairs\n", x, same, total
	}
}' "$root/BENCHMARK.json" "$pairs"/compare_*.txt
