#!/usr/bin/env bash
# Alternating parent/change pairs of one bench/ workload.
#
#   scripts/pairs.sh <parent-rev> <workload> <N> [bench/run.sh flags...]
#
# The change is the working tree; the parent is <parent-rev>, exported with
# `git archive` into .bench_build/pairs/<sha>/ (the export is reused by later
# calls, and the repository's .git is left untouched). Pair i = 1..N runs
# `bash bench/run.sh -workload <workload> -seed i` once on each side — the
# parent first on odd i, the change first on even i, so a drifting host
# charges both sides alike. Extra flags (for example -seconds 8) go to both
# sides. Each run's full output is kept in .bench_build/pairs/logs/, and the
# result line bench/ ends with in .bench_build/pairs/<workload>-{parent,change}.jsonl.
#
# For every end-to-end metric of BENCHMARK.json it prints each side's median
# and quartiles (linear interpolation), the ratio of the medians, and the
# change's wins out of N by the metric's direction (ties count for neither);
# then attempted/failed operations and correctness per side. A run that
# fails stops the script with its exit status.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 <parent-rev> <workload> <N> [bench/run.sh flags...]" >&2
	exit 2
fi
rev=$1 workload=$2 n=$3
shift 3
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
out="$root/.bench_build/pairs"
parent="$out/$sha"
mkdir -p "$out/logs"
if [ ! -d "$parent" ]; then
	rm -rf "$parent.tmp"
	mkdir -p "$parent.tmp"
	git -C "$root" archive "$sha" | tar -x -C "$parent.tmp"
	mv "$parent.tmp" "$parent"
fi

pj="$out/$workload-parent.jsonl"
cj="$out/$workload-change.jsonl"
: >"$pj"
: >"$cj"

# run <side> <seed>: one benchmark run, its result line appended to the
# side's file. The parent's export sits inside this checkout, so git must
# not look above it: its environment stamp then reads like any checkout
# without .git.
run() {
	local side=$1 seed=$2 dir=$root file=$cj log
	shift 2
	if [ "$side" = parent ]; then
		dir=$parent file=$pj
	fi
	log="$out/logs/$workload-$side-$seed.log"
	GIT_CEILING_DIRECTORIES="$out" bash "$dir/bench/run.sh" -workload "$workload" -seed "$seed" "$@" >"$log" 2>&1 || {
		local status=$?
		echo "pairs: $side run, seed $seed, exited $status; see $log" >&2
		exit "$status"
	}
	tail -n 1 "$log" >>"$file"
}

for ((i = 1; i <= n; i++)); do
	if ((i % 2)); then
		run parent "$i" "$@"
		run change "$i" "$@"
	else
		run change "$i" "$@"
		run parent "$i" "$@"
	fi
	echo "pair $i/$n done" >&2
done

# value <metric> <file>: the metric's value in each result line, one a line.
value() { grep -o "\"$1\":{\"value\":[^,}]*" "$2" | sed 's/.*://'; }
# field <name> <file>: a top-level field of each result line.
field() { grep -o "\"$1\":[^,}]*" "$2" | sed 's/.*://'; }

dirty=$(git -C "$root" status --porcelain --untracked-files=no | grep -q . && echo " + uncommitted changes" || true)
echo "workload $workload: $n pairs, parent ${sha:0:12} vs the working tree ($(git -C "$root" rev-parse --short=12 HEAD)$dirty)"
printf '%-10s %-5s %-6s  %-36s  %-36s  %7s  %s\n' metric unit better \
	"parent median [q1, q3]" "change median [q1, q3]" "chg/par" wins
awk -F': *' '
	/"end_to_end"/ { on = 1 }
	/"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
	on && /"unit"/ { gsub(/[",]/, "", $2); unit = $2 }
	on && /"better"/ { gsub(/[",]/, "", $2); print name, unit, $2 }
' "$root/BENCHMARK.json" | while read -r name unit better; do
	paste <(value "$name" "$pj") <(value "$name" "$cj") | awk -v name="$name" -v unit="$unit" -v better="$better" '
		function sort(a, k,   i, j, t) {
			for (i = 2; i <= k; i++)
				for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
		}
		function q(a, k, f,   h, lo) {
			h = (k - 1) * f + 1; lo = int(h)
			return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
		}
		{ p[NR] = $1; c[NR] = $2; if (better == "higher" ? $2 > $1 : $2 < $1) w++ }
		END {
			sort(p, NR); sort(c, NR)
			printf "%-10s %-5s %-6s  %-36s  %-36s  %7.3f  %d/%d\n", name, unit, better,
				sprintf("%.4g [%.4g, %.4g]", q(p, NR, .5), q(p, NR, .25), q(p, NR, .75)),
				sprintf("%.4g [%.4g, %.4g]", q(c, NR, .5), q(c, NR, .25), q(c, NR, .75)),
				q(p, NR, .5) ? q(c, NR, .5) / q(p, NR, .5) : 0, w, NR
		}'
done
for side in parent change; do
	file=$pj
	[ "$side" = change ] && file=$cj
	printf '%-6s attempted %s failed %s correct %s\n' "$side" \
		"$(field attempted "$file" | awk '{ s += $1 } END { printf "%.0f", s }')" \
		"$(field failed "$file" | awk '{ s += $1 } END { printf "%.0f", s }')" \
		"$(field correct "$file" | sort -u | paste -sd/)"
done
