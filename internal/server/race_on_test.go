//go:build race

package server

// raceEnabled lets the allocation proofs skip under the race detector,
// whose instrumentation moves stack temporaries (the RESP parser's
// string(line) conversions) to the heap.
const raceEnabled = true
