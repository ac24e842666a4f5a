package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// envStamp says where a report's numbers came from.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
}

func stampEnv(root string) envStamp {
	e := envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     "unknown",
		GitSHA:     "none", // a checkout without .git, as the acceptance driver's is
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		b, err := cmd.Output()
		return strings.TrimSpace(string(b)), err
	}
	if sha, err := git("rev-parse", "--short=12", "HEAD"); err == nil {
		e.GitSHA = sha
		st, _ := git("status", "--porcelain")
		e.GitDirty = st != ""
	}
	return e
}

// findRoot walks up from the working directory to the repo root: the
// directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it: run from the repository")
		}
		dir = parent
	}
}

var spinSink uint64

// spin times a fixed amount of register-only work, three times, and
// keeps the fastest: the program under test cannot change its speed, so
// a difference between the spin before a run and the one after means the
// host's speed changed, and the run is marked noisy. The first pass also
// absorbs the slow start of a freshly woken virtual CPU.
func spin() time.Duration {
	const steps = 1 << 25
	best := time.Duration(1<<63 - 1)
	for pass := 0; pass < 3; pass++ {
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < steps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink = x
		best = min(best, time.Since(start))
	}
	return best
}
