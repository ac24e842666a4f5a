package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/oamem"
)

// buildServer compiles the real cmd/oaserver into .bench_build/bin under
// the repo root (go build leaves an up-to-date binary alone) and returns
// its path. The build is not part of any metric.
func buildServer(root string) (string, error) {
	out := filepath.Join(root, ".bench_build", "bin", "oaserver")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/oaserver")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/oaserver: %w\n%s", err, b)
	}
	return out, nil
}

// live is every server process currently running, so that any exit path
// — a failed check, a signal, a panic — can leave no orphan.
var live struct {
	sync.Mutex
	procs map[*serverProc]struct{}
}

func killLive() {
	live.Lock()
	defer live.Unlock()
	for p := range live.procs {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
	live.procs = nil
}

// serverProc is one spawned oaserver.
type serverProc struct {
	cmd                    *exec.Cmd
	addr, respAddr, dbgURL string
	stdout                 bytes.Buffer
	stderrDone             chan struct{}
	stderrTail             []string
}

// serverOpts selects the listeners and flags of a spawn. Only
// deployment-style flags are ever passed: addresses, capacity and the
// cache settings, plus the observability switches for a traced run.
type serverOpts struct {
	args   []string // workload flags: -capacity, -cache, -ttl, -max-entries
	resp   bool     // also open the RESP listener
	traced bool     // -debug -trace -slow-threshold 1ns -slowlog 4096
}

func startServer(bin string, o serverOpts) (*serverProc, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	want := 1
	if o.resp {
		args = append(args, "-resp", "127.0.0.1:0")
		want++
	}
	if o.traced {
		args = append(args, "-debug", "127.0.0.1:0", "-trace", "-slow-threshold", "1ns", "-slowlog", "4096")
		want++
	}
	p := &serverProc{cmd: exec.Command(bin, append(args, o.args...)...), stderrDone: make(chan struct{})}
	p.cmd.Stdout = &p.stdout
	// The kernel kills the server if this process dies without cleaning
	// up (main holds its OS thread, so the parent-death signal is tied to
	// the process, not to a transient thread).
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*serverProc]struct{}{}
	}
	live.procs[p] = struct{}{}
	live.Unlock()

	ready := make(chan error, 1)
	go func() {
		defer close(p.stderrDone)
		sc := bufio.NewScanner(stderr)
		seen := 0
		for sc.Scan() {
			line := sc.Text()
			if len(p.stderrTail) < 64 {
				p.stderrTail = append(p.stderrTail, line)
			}
			switch {
			case strings.HasPrefix(line, "oaserver: serving on "):
				p.addr = strings.Fields(line)[3]
			case strings.HasPrefix(line, "oaserver: RESP on "):
				p.respAddr = strings.Fields(line)[3]
			case strings.HasPrefix(line, "oaserver: observability on "):
				p.dbgURL = strings.TrimSuffix(strings.Fields(line)[3], "/metrics")
			default:
				continue
			}
			if seen++; seen == want {
				ready <- nil
			}
		}
		if seen < want {
			ready <- fmt.Errorf("oaserver exited before listening:\n%s", strings.Join(p.stderrTail, "\n"))
		}
	}()
	select {
	case err := <-ready:
		if err != nil {
			p.kill()
			return nil, err
		}
	case <-time.After(15 * time.Second):
		p.kill()
		return nil, fmt.Errorf("oaserver did not start listening within 15s")
	}
	return p, nil
}

func (p *serverProc) forget() {
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.stderrDone
	p.cmd.Wait()
	p.forget()
}

// stop asks for a graceful drain and holds the server to its contract:
// exit status 0 and a final stats line whose ledger balances.
func (p *serverProc) stop() (*serverStats, error) {
	defer p.forget()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return nil, fmt.Errorf("signal oaserver: %w", err)
	}
	timer := time.AfterFunc(15*time.Second, func() { p.cmd.Process.Kill() })
	<-p.stderrDone
	err := p.cmd.Wait()
	if !timer.Stop() {
		return nil, fmt.Errorf("oaserver did not exit within 15s of SIGTERM")
	}
	if err != nil {
		return nil, fmt.Errorf("oaserver exit after SIGTERM: %w\n%s", err, strings.Join(p.stderrTail, "\n"))
	}
	var st serverStats
	if err := json.Unmarshal(bytes.TrimSpace(p.stdout.Bytes()), &st); err != nil {
		return nil, fmt.Errorf("oaserver final stats: %w", err)
	}
	if st.Server.RequestsRead != st.Server.ResponsesSent {
		return &st, fmt.Errorf("oaserver ledger: requests_read %d != responses_sent %d",
			st.Server.RequestsRead, st.Server.ResponsesSent)
	}
	return &st, nil
}

// statusKB reads one "Key:   value kB" line of /proc/<pid>/status.
func statusKB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, key+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				return strconv.ParseFloat(f[1], 64)
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, key)
}

// cpuNs reads the CPU time (user + system) the server has consumed, from
// /proc/<pid>/stat. The kernel reports it in clock ticks of 10 ms
// (USER_HZ is 100 on every Linux ABI).
func (p *serverProc) cpuNs() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime 14, stime 15.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat times")
	}
	return (ut + st) * 1e7, nil
}

// serverStats is the part of the STATS document the benchmark reads.
type serverStats struct {
	Server struct {
		RequestsRead  uint64 `json:"requests_read"`
		ResponsesSent uint64 `json:"responses_sent"`
		Busy          uint64 `json:"busy"`
		Capacity      uint64 `json:"capacity"`
		RingDepth     []int  `json:"ring_depth"`
		RingFull      uint64 `json:"ring_full"`
		Batches       uint64 `json:"exec_batches"`
		BatchedOps    uint64 `json:"exec_batched_ops"`
	} `json:"server"`
	Latency map[string]struct {
		Count  uint64 `json:"count"`
		MeanNs uint64 `json:"mean_ns"`
		P99Ns  uint64 `json:"p99_ns"`
	} `json:"latency"`
	Cache *struct {
		Live    int64  `json:"live"`
		Expired uint64 `json:"expired"`
		Evicted uint64 `json:"evicted"`
		Reliefs uint64 `json:"reliefs"`
		Sweeps  uint64 `json:"sweeps"`
	} `json:"cache"`
	// Shards are the per-shard reclamation counters, printed with the
	// library's own field names.
	Shards []oamem.Stats `json:"map_shards"`
}

// smr sums the reclamation counters over the shards.
func (s *serverStats) smr() oamem.Stats {
	var t oamem.Stats
	for _, sh := range s.Shards {
		t.Add(sh)
	}
	return t
}

// control is a side connection for the STATS op: a few requests a second,
// apart from the two load connections.
type control struct {
	nc  net.Conn
	buf []byte
}

func dialControl(addr string) (*control, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("control connection: %w", err)
	}
	return &control{nc: nc}, nil
}

func (c *control) stats() (*serverStats, error) {
	c.nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.nc.Write(appendBinFrame(nil, 1, opStats)); err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(c.nc, hdr[:]); err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < 9 || n > 1<<20 {
		return nil, fmt.Errorf("STATS: frame length %d", n)
	}
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	body := c.buf[:n]
	if _, err := io.ReadFull(c.nc, body); err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	if body[8] != stOK {
		return nil, fmt.Errorf("STATS: status %d", body[8])
	}
	var st serverStats
	if err := json.Unmarshal(body[9:], &st); err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	return &st, nil
}

// slowEntry is one /debug/slowlog record: a request's per-stage times.
type slowEntry struct {
	UnixNano int64            `json:"unix_nano"`
	Conn     uint64           `json:"conn"`
	Stages   map[string]int64 `json:"stages"`
}

func (p *serverProc) slowlog() ([]slowEntry, error) {
	resp, err := http.Get(p.dbgURL + "/debug/slowlog")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Entries []slowEntry `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("/debug/slowlog: %w", err)
	}
	return doc.Entries, nil
}
