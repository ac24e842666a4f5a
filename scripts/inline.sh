#!/usr/bin/env bash
# The inlining gate of the per-hop fast paths.
#
#   scripts/inline.sh        (make inline; GO overrides the go command)
#
# Every hop of an OA traversal makes two core calls: Thread.Node, the
# slot dereference, and Thread.Check, the read barrier of Algorithm 1. Both
# must inline, so that a hop is loads and a predictable branch; Check sits
# just under the inliner's budget of 80, so one added statement would
# silently bring the call back. The original traversals of list, skip list
# and queue (NoRecl, EBR, HP, Anchors) likewise rely on every per-hop hook
# of guard.Guard inlining. Under every scheme the dereference ends in
# arena.View.At, the one node lookup (the flat region, else the chunk
# directory), which must inline at OA sites (oakit and the oa.go files)
# and at guard sites (the plain.go files) alike. So must oakit.Link,
# which resolves a chain predecessor's next link (or the root link) for
# every commit: it sits a few units under the budget. And so must the three methods of
# arena.Link, the 32-bit link word every hop loads and every commit CASes
# (Load, Store, CompareAndSwap), at OA sites and guard sites alike. Off the
# per-hop path, Ctx.Release's double-release swap (atomic.Bool.Swap, through
# oakit.release) must inline too: a generic body calling Swap directly left
# it a call in the packages that instantiate Ctx.
#
# The gate compiles the structure packages twice. With -gcflags=-m, the
# compiler must report `inlining call to` for Check, Node, View.At and the
# Link methods, and for every Guard hook. With -gcflags=-S, their assembly
# must hold no CALL to any of them or to the swap, which
# is what makes the check cover every call site: a site that did not
# inline is a CALL. The only calls
# left on those paths are the ones kept out of line on purpose — the
# warning slow path (core's warning.ack) and a guard hook's own work
# (Guard.alloc, .retire, .end and the Anchors visit) — which the patterns
# below do not match.
set -euo pipefail

go=${GO:-go}
cd "$(dirname "${BASH_SOURCE[0]}")/.."

oa="./internal/oakit ./internal/list ./internal/hashtable ./internal/skiplist ./internal/queue ./internal/mpmc ./internal/kvmap ./internal/ttlcache"
hooks="Alloc Retire HP Begin End Clear Protect Validate Visit Restart"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# shellcheck disable=SC2086
"$go" build -gcflags=-m $oa >"$tmp/m" 2>&1
# shellcheck disable=SC2086
"$go" build -gcflags=-S $oa >"$tmp/S" 2>&1

fail=0
need() { # need <label> <regexp> [<site regexp>]: -m must report an inlined site
	local n
	n=$(grep -E "inlining call to $2\$" "$tmp/m" | grep -cE "^${3:-}" || true)
	if [ "$n" -eq 0 ]; then
		echo "inline: no inlined call to $1" >&2
		fail=1
	else
		echo "inline: $1 inlined at $n sites"
	fi
}

need "core.Thread.Check" 'core\.\(\*Thread\[.*\]\)\.Check'
need "core.Thread.Node" 'core\.\(\*Thread\[.*\]\)\.Node'
need "arena.View.At (OA)" 'arena\.\(\*View\[.*\]\)\.At' 'internal/(oakit/|[a-z]+/oa\.go)'
need "arena.View.At (guard)" 'arena\.\(\*View\[.*\]\)\.At' 'internal/[a-z]+/plain\.go'
need "oakit.Link" 'oakit\.Link\[.*\]'
for m in Load Store CompareAndSwap; do
	need "arena.Link.$m (OA)" "arena\\.\\(\\*Link\\)\\.$m" 'internal/(oakit/|[a-z]+/oa\.go)'
	need "arena.Link.$m (guard)" "arena\\.\\(\\*Link\\)\\.$m" 'internal/[a-z]+/plain\.go'
done
for h in $hooks; do
	need "guard.Guard.$h" "guard\\.\\(\\*Guard\\[.*\\]\\)\\.$h"
done

# A CALL left behind by a call site that did not inline.
calls=$(grep -E $'\tCALL\t' "$tmp/S" |
	grep -E 'core\.\(\*Thread\[.*\]\)\.([Cc]heck|Node)\(SB\)|core\.\(\*warning\)\.check\(SB\)|arena\.\(\*View\[.*\]\)\.At\(SB\)|arena\.\(\*Link\)\.(Load|Store|CompareAndSwap)\(SB\)|oakit\.Link\[.*\]\(SB\)|oakit\.release\(SB\)|sync/atomic\.\(\*Bool\)\.Swap\(SB\)|guard\.\(\*Guard\[.*\]\)\.[A-Z][A-Za-z]*\(SB\)' || true)
if [ -n "$calls" ]; then
	echo "inline: call sites that did not inline:" >&2
	echo "$calls" | sed -E 's/^[^(]*\(([^)]*)\).*CALL\t/  \1: /; s/go\.shape\.[^]]*\]/…]/g' >&2
	fail=1
else
	echo "inline: no CALL to Check, Node, View.At, oakit.Link, a Link method, a Guard hook or Bool.Swap"
fi
exit "$fail"
