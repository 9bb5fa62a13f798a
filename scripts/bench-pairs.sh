#!/usr/bin/env bash
# Paired perfbench runs of a base commit against the working tree.
#
#   scripts/bench-pairs.sh [--traced] BASE WORKLOAD PAIRS [SECONDS] [FIRST_SEED]
#   scripts/bench-pairs.sh HEAD~1 sim-resilient 10 20 1
#   scripts/bench-pairs.sh --traced HEAD~1 sim-resilient 3 20 1
#
# Run it from the repository root. BASE is extracted with `git archive`
# into a temporary directory (under $TMPDIR), which is removed on exit, so
# the script never writes to .git. Each pair runs `bash perfbench/run.sh
# --workload WORKLOAD --seed S --seconds SECONDS --trace 0` once in the
# base copy and once in the working tree, each side with its own build
# directory, so both build from their own sources. The side that runs first alternates from pair to pair,
# and the seed of pair i is FIRST_SEED+i (SECONDS defaults to 20,
# FIRST_SEED to 1).
#
# Every run's JSON line is kept in .bench_build/pairs/WORKLOAD.base.jsonl
# and .bench_build/pairs/WORKLOAD.change.jsonl (one line per pair, in pair
# order). The summary gives, for each end-to-end metric of BENCHMARK.json,
# the base median and quartiles, the change median, the ratio change/base,
# the number of pairs the change won (by the metric's "better" direction)
# and a verdict, then the attempted and failed ops per side. The verdicts:
#
#   gain        the change won at least 9 in 10 pairs, and its median beats
#               the base median by more than the base's interquartile range
#   worse       the change median is worse than the base median by more
#               than the metric's BENCHMARK.json "bound" (a fraction)
#   unresolved  not worse, but the interquartile range of either side
#               exceeds the bound times its median: too spread to tell
#   within      neither of the above
#
# Metrics without a bound (the per-layer ones) get only "gain" or "-". The
# failed-ops line says "worse" when the change fails a larger share.
#
# With --traced, every run is `--trace 1` instead, the lines go to
# .bench_build/pairs/WORKLOAD.traced.base.jsonl and
# .bench_build/pairs/WORKLOAD.traced.change.jsonl, and the summary gives
# the same columns for each per-layer metric of BENCHMARK.json (the pairs
# "won" count then follows the metric's "better" direction, which for a
# layer's time is lower), leaving out the layers that read 0 in every run
# of both sides.
set -euo pipefail

trace=0 tag= section=end_to_end
if [ "${1:-}" = --traced ]; then
	trace=1 tag=.traced section=per_layer
	shift
fi
if [ $# -lt 3 ] || [ $# -gt 5 ]; then
	echo "usage: scripts/bench-pairs.sh [--traced] BASE WORKLOAD PAIRS [SECONDS] [FIRST_SEED]" >&2
	exit 2
fi
base=$1 workload=$2 pairs=$3 seconds=${4:-20} first=${5:-1}
root=$(pwd)
if [ ! -f "$root/BENCHMARK.json" ] || [ ! -f "$root/perfbench/run.sh" ]; then
	echo "bench-pairs: run from the repository root" >&2
	exit 2
fi
rev=$(git rev-parse --verify "$base^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base" || {
	echo "bench-pairs: cannot extract $base into $tmp/base" >&2
	exit 1
}

out=$root/.bench_build/pairs
mkdir -p "$out"
: >"$out/$workload$tag.base.jsonl"
: >"$out/$workload$tag.change.jsonl"

# run SIDE SEED appends one run's JSON line to the side's file; a run that
# fails (exit 1 on a failed op) still leaves its line.
run() {
	local side=$1 seed=$2 dir line
	if [ "$side" = base ]; then dir=$tmp/base; else dir=$root; fi
	line=$(cd "$dir" && CARGO_TARGET_DIR=$root/.bench_build/pairs-$side \
		bash perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1) || true
	if [ -z "$line" ]; then
		line='{"correct":false,"attempted":0,"failed":0,"metrics":{}}'
	fi
	echo "$line" >>"$out/$workload$tag.$side.jsonl"
}

for ((i = 0; i < pairs; i++)); do
	seed=$((first + i))
	if ((i % 2 == 0)); then
		run base "$seed"
		run change "$seed"
	else
		run change "$seed"
		run base "$seed"
	fi
	echo "pair $((i + 1))/$pairs (seed $seed) done" >&2
done

echo "$workload: $pairs ${tag:+traced }pairs of ${seconds}s, seeds $first-$((first + pairs - 1)), base $base (${rev:0:12}) vs working tree"
echo "runs: $out/$workload$tag.{base,change}.jsonl"
awk -v section="$section" '
# Metric names and directions: the entries of the BENCHMARK.json section
# ("end_to_end", or "per_layer" for traced runs).
FNR == 1 { file++ }
file == 1 {
	if ($0 ~ "\"" section "\"") { insec = 1; next }
	if (insec && $0 ~ /^[[:space:]]*\]/) { insec = 0 }
	if (insec && match($0, /"name": *"[^"]*"/)) {
		s = substr($0, RSTART, RLENGTH); sub(/"name": *"/, "", s); sub(/"$/, "", s)
		n++; name[n] = s
		better[n] = ($0 ~ /"better": *"higher"/) ? "higher" : "lower"
		bound[n] = ""
		if (match($0, /"bound": *[0-9.eE+-]+/)) {
			s = substr($0, RSTART, RLENGTH); sub(/"bound": */, "", s)
			bound[n] = s + 0
		}
	}
	next
}
{
	side = (file == 2) ? "base" : "change"
	runs[side]++
	r = runs[side]
	for (k = 1; k <= n; k++) {
		pat = "\"" name[k] "\":\\{\"value\":[-0-9.eE+]+"
		if (match($0, pat)) {
			v = substr($0, RSTART, RLENGTH); sub(/.*"value":/, "", v)
			val[side, k, r] = v + 0
		} else {
			val[side, k, r] = "NA"
		}
	}
	if (match($0, /"attempted":[0-9]+/)) { v = substr($0, RSTART + 12, RLENGTH - 12); att[side] += v }
	if (match($0, /"failed":[0-9]+/)) { v = substr($0, RSTART + 9, RLENGTH - 9); fail[side] += v }
}
# quantile of the sorted array a[1..m] (linear interpolation).
function quant(a, m, q,    h, lo) {
	if (m == 0) return "NA"
	h = (m - 1) * q + 1; lo = int(h)
	if (lo >= m) return a[m]
	return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function sortn(a, m,    i, j, t) {
	for (i = 2; i <= m; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
		a[j + 1] = t
	}
}
function abs(x) { return x < 0 ? -x : x }
# verdict judges metric k from the sorted base and change values b[1..mb],
# c[1..mc] and the pairs won of pw compared (see the header comment).
function verdict(k, b, mb, c, mc, won, pw,    bm, cm, biqr, ciqr, v, beyond) {
	if (mb == 0 || mc == 0) return "-"
	bm = quant(b, mb, 0.5); cm = quant(c, mc, 0.5)
	biqr = quant(b, mb, 0.75) - quant(b, mb, 0.25)
	ciqr = quant(c, mc, 0.75) - quant(c, mc, 0.25)
	v = "-"
	if (bound[k] != "") {
		if ((better[k] == "higher" && cm < bm * (1 - bound[k])) || (better[k] == "lower" && cm > bm * (1 + bound[k])))
			return "worse"
		if (biqr > bound[k] * abs(bm) || ciqr > bound[k] * abs(cm))
			return "unresolved"
		v = "within"
	}
	beyond = (better[k] == "higher") ? (cm - bm > biqr) : (bm - cm > biqr)
	if (pw > 0 && won >= 0.9 * pw && beyond) v = "gain"
	return v
}
END {
	p = (runs["base"] < runs["change"]) ? runs["base"] : runs["change"]
	printf "%-32s %12s %25s %12s %8s %6s  %s\n", "metric", "base p50", "base q1-q3", "change p50", "ratio", "won", "verdict"
	for (k = 1; k <= n; k++) {
		mb = 0; mc = 0; won = 0; pw = 0
		delete b; delete c
		for (r = 1; r <= p; r++) {
			vb = val["base", k, r]; vc = val["change", k, r]
			if (vb == "NA" || vc == "NA") continue
			b[++mb] = vb; c[++mc] = vc; pw++
			if ((better[k] == "higher" && vc > vb) || (better[k] == "lower" && vc < vb)) won++
		}
		sortn(b, mb); sortn(c, mc)
		bm = quant(b, mb, 0.5); cm = quant(c, mc, 0.5)
		if (bm == 0 && cm == 0 && b[mb] == 0 && c[mc] == 0) continue # a layer neither side ran
		ratio = (bm == "NA" || cm == "NA" || bm == 0) ? "NA" : sprintf("%.4f", cm / bm)
		printf "%-32s %12s %25s %12s %8s %6s  %s\n", name[k], \
			(bm == "NA") ? "NA" : sprintf("%.4g", bm), \
			(mb == 0) ? "NA" : sprintf("%.4g-%.4g", quant(b, mb, 0.25), quant(b, mb, 0.75)), \
			(cm == "NA") ? "NA" : sprintf("%.4g", cm), ratio, won "/" pw, verdict(k, b, mb, c, mc, won, pw)
	}
	fb = (att["base"] > 0) ? fail["base"] / att["base"] : 0
	fc = (att["change"] > 0) ? fail["change"] / att["change"] : 0
	printf "failed ops: base %d of %d, change %d of %d%s\n", fail["base"], att["base"], fail["change"], att["change"], \
		(fc > fb) ? " (worse)" : ""
}
' BENCHMARK.json "$out/$workload$tag.base.jsonl" "$out/$workload$tag.change.jsonl"
