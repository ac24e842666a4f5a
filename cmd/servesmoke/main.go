// Command servesmoke is the end-to-end serving smoke test wired into
// `make serve-smoke`: it builds oaserver and oaload, serves a 32-slot
// registry, drives it with 64 pipelined
// connections churning through reconnects, then SIGTERMs the server
// mid-setup of the next burst and checks the full drain contract:
//
//   - oaload sustains >= 100k pipelined ops/s with zero dropped responses
//   - the server exits 0 with a final JSON stats line where no connection
//     was force-closed and every request read got its response
//     (requests_read == responses_sent: nothing in flight was dropped)
//   - the lease economy held: session grants equal the shard
//     count (executors hold the only leases — connections never lease,
//     no matter how many churn), everything flowed through the rings
//     (exec_batched_ops > 0), and no lease outlives the drain
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

const (
	slots    = 32
	conns    = 64
	minRate  = 100_000 // ops/s floor from the acceptance criteria
	loadTime = 2 * time.Second
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: PASS")
}

func run() error {
	tmp, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	serverBin := filepath.Join(tmp, "oaserver")
	loadBin := filepath.Join(tmp, "oaload")
	for bin, pkg := range map[string]string{serverBin: "./cmd/oaserver", loadBin: "./cmd/oaload"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("building %s: %w", pkg, err)
		}
	}

	addr, err := freeAddr()
	if err != nil {
		return err
	}
	var serverOut, serverErr bytes.Buffer
	// -shards 1 pins the single-instance baseline this smoke's floors were
	// set against (shard scaling has its own gate in cmd/shardsmoke).
	srv := exec.Command(serverBin,
		"-addr", addr,
		"-shards", "1",
		"-threads", strconv.Itoa(slots),
		"-capacity", strconv.Itoa(1<<20))
	srv.Stdout = &serverOut
	srv.Stderr = &serverErr
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Process.Kill()
	if err := waitListening(addr, 10*time.Second); err != nil {
		return fmt.Errorf("server never listened: %w (stderr:\n%s)", err, serverErr.String())
	}

	// Burst 1: throughput + conn-slot recycling under connection churn.
	loadOut, err := exec.Command(loadBin,
		"-addr", addr,
		"-conns", strconv.Itoa(conns),
		"-duration", loadTime.String(),
		"-burst", "2000").CombinedOutput()
	fmt.Print(string(loadOut))
	if err != nil {
		return fmt.Errorf("oaload: %w", err)
	}
	stats, err := parseLoad(string(loadOut))
	if err != nil {
		return err
	}
	if stats.rate < minRate {
		return fmt.Errorf("throughput %.0f ops/s below the %d floor", stats.rate, minRate)
	}
	if stats.dropped != 0 {
		return fmt.Errorf("%d dropped responses under load", stats.dropped)
	}

	// Burst 2 in the background, then SIGTERM mid-load: the drain must
	// resolve every in-flight request before the server exits.
	drainLoad := exec.Command(loadBin,
		"-addr", addr,
		"-conns", strconv.Itoa(conns),
		"-duration", "30s", // cut short by the drain
		"-burst", "0")
	var drainOut bytes.Buffer
	drainLoad.Stdout = &drainOut
	drainLoad.Stderr = &drainOut
	if err := drainLoad.Start(); err != nil {
		return err
	}
	time.Sleep(300 * time.Millisecond) // let the pipelines fill
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := srv.Wait(); err != nil {
		return fmt.Errorf("server exit after SIGTERM: %w (stderr:\n%s)", err, serverErr.String())
	}
	if err := drainLoad.Wait(); err != nil {
		return fmt.Errorf("oaload during drain: %w (output:\n%s)", err, drainOut.String())
	}
	fmt.Print(drainOut.String())
	drainStats, err := parseLoad(drainOut.String())
	if err != nil {
		return err
	}
	if drainStats.dropped != 0 {
		return fmt.Errorf("%d responses dropped during drain", drainStats.dropped)
	}

	// Final server stats line: clean drain, no force-closes, and the
	// lease economy — one executor lease per shard, full stop.
	var final struct {
		Server struct {
			RequestsRead  uint64 `json:"requests_read"`
			ResponsesSent uint64 `json:"responses_sent"`
			ForceClosed   uint64 `json:"force_closed"`
			SessionsCap   int    `json:"sessions_cap"`
			SessionsInUse int    `json:"sessions_leased"`
			SessionGrants uint64 `json:"session_grants"`
			GoAways       uint64 `json:"goaways"`
			Shards        int    `json:"shards"`
			BatchedOps    uint64 `json:"exec_batched_ops"`
		} `json:"server"`
	}
	if err := json.Unmarshal(serverOut.Bytes(), &final); err != nil {
		return fmt.Errorf("final stats line does not parse: %w (stdout: %q)", err, serverOut.String())
	}
	f := final.Server
	if f.ForceClosed != 0 {
		return fmt.Errorf("%d connections force-closed at drain timeout", f.ForceClosed)
	}
	if f.RequestsRead != f.ResponsesSent {
		return fmt.Errorf("requests_read=%d != responses_sent=%d: server dropped in-flight work",
			f.RequestsRead, f.ResponsesSent)
	}
	if f.SessionsCap != slots {
		return fmt.Errorf("sessions_cap=%d, want %d", f.SessionsCap, slots)
	}
	// The whole point of the executors: 64 churning connections, yet
	// the only session grants ever made are the executors' — one per
	// shard — and none survives the drain.
	if f.SessionGrants != uint64(f.Shards) {
		return fmt.Errorf("session_grants=%d over %d shards: something besides the executors leased sessions",
			f.SessionGrants, f.Shards)
	}
	if f.SessionsInUse != 0 {
		return fmt.Errorf("sessions_leased=%d after drain, want 0", f.SessionsInUse)
	}
	if f.BatchedOps == 0 {
		return errors.New("exec_batched_ops=0: the load bypassed the rings")
	}
	if f.GoAways == 0 {
		return errors.New("no GOAWAY frames sent during drain")
	}
	fmt.Printf("servesmoke: %.0f ops/s over %d conns on %d slots, %d lease grants for %d shards, drain clean (%d reqs = %d resps)\n",
		stats.rate, conns, slots, f.SessionGrants, f.Shards, f.RequestsRead, f.ResponsesSent)
	return nil
}

type loadStats struct {
	ops, dropped uint64
	rate         float64
}

var loadLine = regexp.MustCompile(
	`oaload: ops=(\d+) busy=\d+ dropped=(\d+) errs=\d+ elapsed=\S+ ops_per_sec=(\d+)`)

func parseLoad(out string) (loadStats, error) {
	m := loadLine.FindStringSubmatch(out)
	if m == nil {
		return loadStats{}, fmt.Errorf("no oaload summary line in output:\n%s", out)
	}
	ops, _ := strconv.ParseUint(m[1], 10, 64)
	dropped, _ := strconv.ParseUint(m[2], 10, 64)
	rate, _ := strconv.ParseFloat(m[3], 64)
	return loadStats{ops: ops, dropped: dropped, rate: rate}, nil
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func waitListening(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return errors.New("timeout")
}
