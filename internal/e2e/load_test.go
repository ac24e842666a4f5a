package e2e

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// load is pipelined traffic driven from this process over the server's own
// clients: conns connections, each keeping window requests in flight over
// a GET/PUT/DEL/CAS mix of 5:3:1:1 and reconnecting after every burst
// requests (0 = never), so that over time more connections lease than the
// server has session slots. A connection told GOAWAY stops issuing, waits
// out its pipeline and ends; a reply that never arrives counts as dropped.
// RESP has no GOAWAY, so there a drain shows as a cut connection.
type load struct {
	addr  string
	resp  bool // speak RESP2 to a -resp listener
	conns int
	burst int
	zipf  bool // Zipf(s just above 1) over 65,536 keys, not uniform over 4,096

	lat                      obs.Histogram // binary round trips, send to reply
	ops, busy, dropped, errs atomic.Uint64
	quit                     chan struct{}
	halt                     sync.Once
	wg                       sync.WaitGroup
}

const window = 128

// counts are a finished load's totals.
type counts struct{ ops, busy, dropped, errs uint64 }

// start launches the connections; the load runs until stop, or until the
// server's drain ends every connection.
func (l *load) start(t *testing.T) *load {
	l.quit = make(chan struct{})
	t.Cleanup(l.stop) // a failed test must not leave a load running
	for w := range l.conns {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 1))
			key := func() uint64 { return r.Uint64N(4096) }
			if l.zipf {
				key = rand.NewZipf(r, 1.01, 1, 1<<16-1).Uint64
			}
			if l.resp {
				l.runRESP(r, key)
			} else {
				l.runBinary(r, key)
			}
		}()
	}
	return l
}

func (l *load) stop() { l.halt.Do(func() { close(l.quit) }) }

func (l *load) stopped() bool {
	select {
	case <-l.quit:
		return true
	default:
		return false
	}
}

// wait holds the load to its contract — work done, nothing dropped, no
// hard error — once every connection has ended.
func (l *load) wait(t *testing.T) counts {
	t.Helper()
	done := make(chan struct{})
	go func() { l.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("load still running 20s after it should have ended")
	}
	n := counts{l.ops.Load(), l.busy.Load(), l.dropped.Load(), l.errs.Load()}
	if n.ops == 0 || n.dropped != 0 || n.errs != 0 {
		t.Fatalf("load ops=%d busy=%d dropped=%d errs=%d, want ops>0 dropped=0 errs=0", n.ops, n.busy, n.dropped, n.errs)
	}
	return n
}

// run drives the load for d and waits for it.
func (l *load) run(t *testing.T, d time.Duration) counts {
	t.Helper()
	l.start(t)
	time.Sleep(d)
	l.stop()
	return l.wait(t)
}

func (l *load) runBinary(r *rand.Rand, key func() uint64) {
	for !l.stopped() {
		c, err := server.Dial(l.addr, window)
		if err != nil {
			return // the listener is gone: the drain has begun
		}
		c.Latency = &l.lat
		calls := make([]*server.Call, 0, window)
		settle := func() bool {
			c.Flush()
			ok := true
			for _, ca := range calls {
				switch {
				case ca.Wait() != nil:
					l.dropped.Add(1)
					ok = false
				case ca.Status == server.StBusy:
					l.busy.Add(1)
				default:
					l.ops.Add(1)
				}
			}
			calls = calls[:0]
			return ok
		}
		for sent := 0; (l.burst == 0 || sent < l.burst) && !l.stopped(); sent++ {
			var ca *server.Call
			switch k := key(); r.Uint64N(10) {
			case 0:
				ca, err = c.Del(k)
			case 1:
				ca, err = c.CAS(k, r.Uint64N(3), r.Uint64())
			case 2, 3, 4:
				ca, err = c.Put(k, r.Uint64())
			default:
				ca, err = c.Get(k)
			}
			if err != nil {
				if !errors.Is(err, server.ErrGoAway) {
					l.errs.Add(1)
				}
				break
			}
			if calls = append(calls, ca); len(calls) == window && !settle() {
				break
			}
		}
		drained := c.GoAway()
		settle()
		c.Close()
		if drained {
			return
		}
	}
}

func (l *load) runRESP(r *rand.Rand, key func() uint64) {
	val := func() string { return strconv.FormatUint(r.Uint64N(1_000_000), 10) }
	for !l.stopped() {
		c, err := server.DialRESP(l.addr)
		if err != nil {
			return
		}
		inflight := 0
		settle := func() bool {
			for ; inflight > 0; inflight-- {
				v, err := c.Recv()
				switch {
				case err != nil:
					l.dropped.Add(uint64(inflight))
					inflight = 0
					return false
				case v.IsError() && bytes.HasPrefix(v.Str, []byte("BUSY")):
					l.busy.Add(1)
				case v.IsError():
					l.errs.Add(1)
				default:
					l.ops.Add(1)
				}
			}
			return true
		}
		for sent := 0; (l.burst == 0 || sent < l.burst) && !l.stopped(); sent++ {
			switch k := strconv.FormatUint(key(), 10); r.Uint64N(10) {
			case 0:
				c.Send("DEL", k)
			case 1:
				c.Send("CAS", k, val(), val())
			case 2, 3, 4:
				c.Send("SET", k, val())
			default:
				c.Send("GET", k)
			}
			if inflight++; inflight == window && !settle() {
				break
			}
		}
		settled := settle()
		c.Close()
		if !settled {
			return
		}
	}
}
