package e2e

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/ttlcache"
)

// binDir holds oaserver, oaload and oastress, built once for the package.
var binDir string

func TestMain(m *testing.M) {
	flag.Parse()
	if !testing.Short() {
		dir, err := os.MkdirTemp("", "oa-e2e")
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(1)
		}
		build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
			"./cmd/oaserver", "./cmd/oaload", "./cmd/oastress")
		build.Dir = filepath.Join("..", "..")
		if out, err := build.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "e2e: building the commands: %v\n%s", err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
		binDir = dir
	}
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// skipShort keeps the package out of -short runs (make race, quick loops).
func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("process-level check: seconds of real processes and health-rule hysteresis")
	}
}

// eventually polls ok until it holds; every wait in this package is one of
// these, so a slow host stretches a test instead of failing it.
func eventually(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(15 * time.Second); !ok(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// output collects one stream of a child process; os/exec copies into it
// from its own goroutine while the test reads.
type output struct {
	mu sync.Mutex
	b  []byte
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.b = append(o.b, p...)
	return len(p), nil
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return string(o.b)
}

// proc is one spawned command.
type proc struct {
	name           string
	cmd            *exec.Cmd
	stdout, stderr output
	exited         chan struct{} // closed once Wait has returned
}

// start spawns one of the built commands. The child dies with this
// process (Pdeathsig; the Go runtime keeps the spawning thread alive) and
// at the end of the test, whose failure prints the child's stderr tail.
func start(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	// Listing the command's directory makes its sources an input of go
	// test's result cache; without it an edit to a main.go alone would be
	// answered with a cached pass.
	os.ReadDir(filepath.Join("..", "..", "cmd", name))
	p := &proc{name: name, cmd: exec.Command(filepath.Join(binDir, name), args...), exited: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = &p.stdout, &p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	go func() {
		p.cmd.Wait() // the status is read from ProcessState
		close(p.exited)
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.exited
		if stderr := strings.TrimSpace(p.stderr.String()); t.Failed() && stderr != "" {
			lines := strings.Split(stderr, "\n")
			t.Logf("%s %v: stderr tail:\n%s", name, args, strings.Join(lines[max(0, len(lines)-30):], "\n"))
		}
	})
	return p
}

// announced returns the address in the child's "<what> on <addr>" line,
// the only way a listener bound to port 0 can be found.
func (p *proc) announced(t *testing.T, what string) (addr string) {
	t.Helper()
	re := regexp.MustCompile(what + ` on (?:http://)?(127\.0\.0\.1:\d+)[\s/]`)
	eventually(t, p.name+" announcing "+what, func() bool {
		select {
		case <-p.exited:
			t.Fatalf("%s exited before announcing %q", p.name, what)
		default:
		}
		if m := re.FindStringSubmatch(p.stdout.String() + p.stderr.String()); m != nil {
			addr = m[1]
		}
		return addr != ""
	})
	return addr
}

func (p *proc) signal(t *testing.T, sig syscall.Signal) {
	t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		t.Fatalf("signal %s: %v", p.name, err)
	}
}

// exit waits for the child to exit on its own and returns its status.
func (p *proc) exit(t *testing.T) int {
	t.Helper()
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		t.Fatalf("%s still running 20s after it should have exited", p.name)
	}
	return p.cmd.ProcessState.ExitCode()
}

// stats is the part of the server's STATS / final-stats document the
// tests read.
type stats struct {
	Server  server.Snapshot              `json:"server"`
	Latency map[string]server.CmdLatency `json:"latency"`
	Cache   *ttlcache.Stats              `json:"cache"`
}

// cache returns the cache block, which only a server started with -cache
// reports.
func (st stats) cache(t *testing.T) ttlcache.Stats {
	t.Helper()
	if st.Cache == nil {
		t.Fatal("no cache block in the stats document: -cache did not reach the server")
	}
	return *st.Cache
}

// oaserver is a spawned server and the listeners it announced.
type oaserver struct {
	*proc
	addr, resp, debug string // resp and debug are "" without their flag
}

// serve starts oaserver on an ephemeral binary-protocol port; flags name
// further listeners as 127.0.0.1:0 too.
func serve(t *testing.T, flags ...string) *oaserver {
	t.Helper()
	s := &oaserver{proc: start(t, "oaserver", append([]string{"-addr", "127.0.0.1:0"}, flags...)...)}
	if slices.Contains(flags, "-debug") {
		s.debug = "http://" + s.announced(t, "observability")
	}
	s.addr = s.announced(t, "serving")
	if slices.Contains(flags, "-resp") {
		s.resp = s.announced(t, "RESP")
	}
	return s
}

// stats fetches the live STATS document over a throwaway connection (one
// left open would hold up the drain).
func (s *oaserver) stats(t *testing.T) (st stats) {
	t.Helper()
	c, err := server.Dial(s.addr, 4)
	if err != nil {
		t.Fatalf("STATS connection: %v", err)
	}
	defer c.Close()
	body, err := c.Stats()
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	if err != nil {
		t.Fatalf("STATS: %v", err)
	}
	return st
}

// drain SIGTERMs the server, runs settle once the drain has begun, and
// holds the exit to the contract every lifecycle shares: status 0 and a
// final-stats line on stdout whose ledger balances with nothing cut and
// no lease left out.
func (s *oaserver) drain(t *testing.T, settle func()) (st stats) {
	t.Helper()
	s.signal(t, syscall.SIGTERM)
	eventually(t, "the drain to begin", func() bool { return strings.Contains(s.stderr.String(), "draining") })
	if settle != nil {
		settle()
	}
	if code := s.exit(t); code != 0 {
		t.Fatalf("oaserver exit status %d after SIGTERM, want 0", code)
	}
	if err := json.Unmarshal([]byte(s.stdout.String()), &st); err != nil {
		t.Fatalf("final stats line: %v (stdout %q)", err, s.stdout.String())
	}
	f := st.Server
	if f.RequestsRead == 0 || f.RequestsRead != f.ResponsesSent {
		t.Errorf("requests_read=%d responses_sent=%d: the drain dropped in-flight work", f.RequestsRead, f.ResponsesSent)
	}
	if f.ForceClosed != 0 || f.SessionsInUse != 0 {
		t.Errorf("force_closed=%d sessions_leased=%d after the drain, want 0 and 0", f.ForceClosed, f.SessionsInUse)
	}
	return st
}

var loadLine = regexp.MustCompile(`oaload: ops=(\d+) busy=(\d+) dropped=(\d+) errs=(\d+) elapsed=\S+ ops_per_sec=\d+`)

// finish waits for an oaload and holds it to its contract — exit 0, a
// summary line, work done, nothing dropped — returning the line's ops,
// busy, dropped and errs.
func finish(t *testing.T, p *proc) (n [4]uint64) {
	t.Helper()
	code := p.exit(t)
	m := loadLine.FindStringSubmatch(p.stdout.String())
	if m == nil {
		t.Fatalf("oaload exit %d without a summary line:\n%s%s", code, p.stdout.String(), p.stderr.String())
	}
	for i := range n {
		n[i], _ = strconv.ParseUint(m[i+1], 10, 64)
	}
	if code != 0 || n[0] == 0 || n[2] != 0 || n[3] != 0 {
		t.Fatalf("oaload exit %d: %s", code, m[0])
	}
	return n
}

// loadThroughDrain starts an oaload that only the drain will stop, waits
// until its traffic is flowing, and returns the settle step for drain.
func (s *oaserver) loadThroughDrain(t *testing.T, args ...string) func() {
	t.Helper()
	before := s.stats(t).Server.RequestsRead
	p := start(t, "oaload", append([]string{"-addr", s.addr, "-duration", "60s"}, args...)...)
	eventually(t, "the load to flow", func() bool { return s.stats(t).Server.RequestsRead > before+20000 })
	return func() { finish(t, p) }
}
