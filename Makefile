# Convenience targets for the optimistic-access reproduction.

GO ?= go

.PHONY: all ci build inline test zeroalloc race race-full cover fuzz bench experiments stress clean

all: build test

# Everything a merge gate needs: compile+vet (the benchmark module too), tests, the allocation
# proofs, and the race detector over the reclamation core and the request
# path. The process-level check — real oaserver/oaload/oastress binaries
# through start, load, SIGTERM/SIGINT and the final-stats ledger — is the
# internal/e2e test package, so it runs inside `test` (go test ./...;
# one check alone: go test -run TestLifecycle/cache ./internal/e2e).
# Performance is recorded by bench/ (BENCHMARK.json), not gated here;
# what is gated is that the per-hop fast paths compile without a call.
ci: build inline test zeroalloc race

# bench/ is its own module, outside ./..., and imports internal packages
# (server, core, arena, mpmc): vetting and testing it here keeps an
# internal API change from breaking the benchmark unseen.
build:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short ./...

# The inlining gate (scripts/inline.sh): every OA hop's warning check
# and node dereference, and every guard hook of the original traversals,
# must inline at every call site — no CALL to them in the assembly.
inline:
	GO=$(GO) bash scripts/inline.sh

test:
	$(GO) test ./...

# The allocation proofs, run uncached: structure operations and
# reclamation passes (root zeroalloc_test.go), the request ring, the
# trace recorder, and the served request path of both protocols — a
# pipelined loopback burst through reader, codec, ring, executor, outbox
# slots and writer must allocate nothing per request and cost exactly one
# ring node, however many shards its keys touch.
zeroalloc:
	$(GO) test -count=1 -run 'Allocate' . ./internal/server ./internal/mpmc ./internal/trace

# The race detector focused where the lock-free interleavings live: the
# reclamation core, the arena (readers racing growth through the chunk
# directory), the baseline manager (the pool NoRecl, EBR, HP and Anchors
# share, and their reclaimers' churn tests), the block pools, the
# MPMC request rings, the OA kit and the structure layer that sits on it
# (list, skip list, queue, hash table, kvmap — the five add ~40 s on the 2-vCPU host), the
# aux-word protocol of the TTL/LRU cache, the server's burst hand-off,
# lock-free outbox and lazily allocated trace rings, and the concurrent
# histograms, counter blocks and health engine of obs and flight. -short
# keeps it inside a merge-gate budget; race-full sweeps everything. The burst hand-off's concurrent test (several connections'
# nodes interleaving on the rings over both codecs, variadic joins, one
# client vanishing) runs ten times over: a race there is a matter of
# interleaving. So do the chain's concurrent, linearizability and
# warning-storm suites, five times: a delete marks and unlinks under one
# commit's hazard pointers, which stay published after it returns.
race:
	$(GO) test -race -short ./internal/core/... ./internal/arena/... ./internal/guard/... ./internal/pools/... ./internal/mpmc/... ./internal/oakit/... ./internal/list/... ./internal/skiplist/... ./internal/queue/... ./internal/hashtable/... ./internal/kvmap/... ./internal/ttlcache/... ./internal/trace/... ./internal/server/... ./internal/obs/... ./internal/flight/...
	$(GO) test -race -count=10 -run TestConcurrentBurstsLedger ./internal/server
	$(GO) test -race -short -count=5 -run 'Linearizability|WarningStorm|Concurrent' ./internal/list ./internal/hashtable ./internal/kvmap

race-full:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Short fuzz pass over every fuzz target (extend -fuzztime for real runs).
fuzz:
	$(GO) test -fuzz FuzzListVsModel -fuzztime 30s ./internal/list
	$(GO) test -fuzz FuzzSkipListVsModel -fuzztime 30s ./internal/skiplist
	$(GO) test -fuzz FuzzMapVsModel -fuzztime 30s ./internal/kvmap
	$(GO) test -fuzz FuzzQueueVsModel -fuzztime 30s ./internal/queue
	$(GO) test -fuzz FuzzFrameReader -fuzztime 30s ./internal/server
	$(GO) test -fuzz FuzzRESPReader -fuzztime 30s ./internal/server

bench:
	$(GO) test -bench=. -benchmem ./...

# Full figure regeneration (paper settings: -duration 1s -reps 20).
experiments:
	$(GO) run ./cmd/oabench -experiment all -duration 300ms -reps 3
	$(GO) run ./cmd/oabench -experiment ext -duration 300ms -reps 3

stress:
	$(GO) run ./cmd/oastress -all -duration 5s

clean:
	$(GO) clean ./...
