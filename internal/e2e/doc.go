// Package e2e is the repo's one process-level check. It holds no code of
// its own: its tests build oaserver and oastress once (TestMain), drive
// their load in-process over internal/server's clients, and assert only
// what a real process can show — flag wiring, announced listeners,
// SIGTERM/SIGINT mid-load and the exit status that follows, the stdout
// final-stats line and its ledger, the client's own counts and latency
// histogram against the server's, each command's /metrics matching
// DESIGN.md §6's signal catalogue. Everything an in-process test of
// internal/server, internal/ttlcache, internal/flight, internal/obs or
// internal/trace already asserts is left to that test.
//
// The tests run inside `go test ./...` and are skipped under -short. One
// check runs alone with, e.g.:
//
//	go test -run TestLifecycle/cache ./internal/e2e
//
// go test caches a pass on this test binary's own imports plus the two
// command directories; after an edit to a package only a command imports
// (internal/harness, say), pass -count=1.
package e2e
