# Convenience targets for the optimistic-access reproduction.

GO ?= go

.PHONY: all ci build test zeroalloc race race-full cover fuzz bench experiments stress obs-smoke trace-smoke serve-smoke resp-smoke shard-smoke slo-smoke health-smoke cache-smoke clean

all: build test

# Everything a merge gate needs: compile+vet, tests, the allocation
# proofs, the race detector over the reclamation core and the request
# path, the observability and event-trace endpoint smokes, the end-to-end
# serving smokes (binary protocol, RESP interop, shard scaling), the SLO
# gate driven off the server's own latency histograms, the health-engine
# gate that provokes each degraded state on purpose, and the TTL/LRU
# cache gate (expiry, sweeping, eviction-not-OOM). Performance is
# recorded by bench/ (BENCHMARK.json), not gated here.
ci: build test zeroalloc race obs-smoke trace-smoke serve-smoke resp-smoke shard-smoke slo-smoke health-smoke cache-smoke

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# The allocation proofs, run uncached: structure operations and
# reclamation passes (root zeroalloc_test.go), the request ring, the
# trace recorder, and the served request path of both protocols — a
# pipelined loopback burst through reader, codec, ring, executors, outbox
# slots and writer must allocate nothing per request and cost at most one
# ring node per shard.
zeroalloc:
	$(GO) test -count=1 -run 'Allocate' . ./internal/server ./internal/mpmc ./internal/trace

# The race detector focused where the lock-free interleavings live: the
# reclamation core, the sharded block pools, the MPMC request rings, the
# generic OA kit, the aux-word protocol of the TTL/LRU cache, and the
# server's burst hand-off, lock-free outbox and lazily allocated trace
# rings. -short keeps it inside a merge-gate budget; race-full sweeps
# everything. The burst hand-off's concurrent test (several connections'
# nodes interleaving on the rings over both codecs, variadic joins, one
# client vanishing) runs ten times over: a race there is a matter of
# interleaving.
race:
	$(GO) test -race -short ./internal/core/... ./internal/pools/... ./internal/mpmc/... ./internal/oakit/... ./internal/ttlcache/... ./internal/trace/... ./internal/server/...
	$(GO) test -race -count=10 -run TestConcurrentBurstsLedger ./internal/server

race-full:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Short fuzz pass over every fuzz target (extend -fuzztime for real runs).
fuzz:
	$(GO) test -fuzz FuzzOAListVsModel -fuzztime 30s ./internal/list
	$(GO) test -fuzz FuzzOASkipListVsModel -fuzztime 30s ./internal/skiplist
	$(GO) test -fuzz FuzzMapVsModel -fuzztime 30s ./internal/kvmap
	$(GO) test -fuzz FuzzOAQueueVsModel -fuzztime 30s ./internal/queue
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

# End-to-end probe of the observability endpoint: starts oastress with
# -http/-snapshot, validates /metrics, /stats.json and /trace, then checks
# the SIGINT contract (verification + final stats dump + exit 130).
obs-smoke:
	$(GO) run ./cmd/obsprobe

# End-to-end probe of the event-trace dump: a short traced soak writes a
# Chrome trace_event file, tracecheck validates its shape and requires the
# phase-transition and restart events a healthy OA run produces.
TRACE_TMP := $(shell mktemp -u /tmp/oastress_trace.XXXXXX.json)
trace-smoke:
	$(GO) run ./cmd/oastress -structure Hash -scheme OA -threads 4 \
		-keys 256 -duration 2s -trace $(TRACE_TMP)
	$(GO) run ./cmd/tracecheck -require phase,restart,drain,refill $(TRACE_TMP)
	@rm -f $(TRACE_TMP)

# End-to-end probe of the network server: builds oaserver+oaload, bursts
# 64 pipelined connections at the shard executors, asserts the
# throughput floor and the one-lease-per-shard economy, then SIGTERMs
# mid-load and checks the drain drops zero in-flight requests.
serve-smoke:
	$(GO) run ./cmd/servesmoke

# RESP2 interop probe: serves the -resp listener and drives it with the
# in-repo RESP client (round-trips, CAS extension, deep pipelining, typed
# errors, clean drain).
resp-smoke:
	$(GO) run ./cmd/respsmoke

# Shard scaling gate: measures the ops/s-vs-shards curve at 1/2/4 shards
# under zipfian load; on a >= 4-core runner 4 shards must deliver >= 1.8x
# the 1-shard rate (mechanics-only on smaller hosts).
shard-smoke:
	$(GO) run ./cmd/shardsmoke

# SLO gate: drives oaload against oaserver and asserts the objectives
# (throughput floor, per-command server-side p99, BUSY budget) from the
# server's OWN latency histograms, cross-checked against the client's
# -json report. Mechanics always; SLOs enforced when GOMAXPROCS >= 4.
slo-smoke:
	$(GO) run ./cmd/slocheck

# TTL/LRU cache gate: serves oaserver with -cache and drives the RESP
# listener through SETEX/EXPIRE/TTL, lazy expiry past a real deadline,
# background sweeping of untouched keys, and 5000 SETs past the LRU
# watermark that must all answer +OK (eviction instead of OOM), ending
# in a clean drain whose final stats carry the cache ledger.
cache-smoke:
	$(GO) run ./cmd/cachesmoke

# Health-engine gate: an in-process server with a tiny ring and a
# fast-ticking flight recorder is driven into ring saturation (stalled
# executor) and backlog growth (PUT+DEL churn); both rules must fire,
# surface on /healthz + INFO health + EvHealth, and clear. Endpoint and
# rule-catalog mechanics assert on any host; the transition assertions
# are strict when GOMAXPROCS >= 4 (and pass on 1 vCPU in practice —
# both provocations are deterministic, not scheduler races).
health-smoke:
	$(GO) run ./cmd/healthsmoke

clean:
	$(GO) clean ./...
