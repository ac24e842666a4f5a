package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// counts is one phase's ledger. A request ends in exactly one of ok,
// busy, capacity, errors, dropped or violations; the last five are the
// failures fail_share counts.
type counts struct {
	Attempted  int64 `json:"attempted"`
	OK         int64 `json:"ok"`
	Busy       int64 `json:"busy"`
	Capacity   int64 `json:"capacity"`
	Errors     int64 `json:"errors"`
	Dropped    int64 `json:"dropped"`
	Violations int64 `json:"violations"`
	// Gets and Hits feed the cache hit share; they are part of OK.
	Gets int64 `json:"gets,omitempty"`
	Hits int64 `json:"hits,omitempty"`
}

func (c *counts) add(o counts) {
	c.Attempted += o.Attempted
	c.OK += o.OK
	c.Busy += o.Busy
	c.Capacity += o.Capacity
	c.Errors += o.Errors
	c.Dropped += o.Dropped
	c.Violations += o.Violations
	c.Gets += o.Gets
	c.Hits += o.Hits
}

func (c counts) failed() int64 {
	return c.Busy + c.Capacity + c.Errors + c.Dropped + c.Violations
}

// errOracle marks a run whose outputs were wrong: a reply or result no
// correct program could give, or a conservation law broken.
var errOracle = errors.New("oracle violation")

func oracleErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errOracle, fmt.Sprintf(format, args...))
}

// Model words besides real values.
const (
	absent  = 0
	unknown = 1 // a write failed; any state is legal until the next write
)

// connModel is the oracle for one connection's private keys: the word
// each key must hold, given every reply so far. The server executes one
// connection's requests on one key in order, so the model is exact.
type connModel struct {
	vals []uint64
	// lossy marks cache semantics: an entry may expire or be evicted, so
	// a miss is always legal, but a hit must carry the current word.
	lossy bool
}

func newConnModel(keys int, lossy bool) *connModel {
	return &connModel{vals: make([]uint64, keys), lossy: lossy}
}

// check applies reply (st, val) of request i to the model and files it
// in cnt. It returns a description when the reply is one no correct
// server could give.
func (m *connModel) check(s *reqStream, c codec, conn, conns, i int, st int, val uint64, hasVal bool, cnt *counts) string {
	op, local, ver := s.at(i)
	cur := m.vals[local]
	newVal := c.value(uint32(local*conns+conn), ver)
	switch st {
	case stBusy, stCapacity, stClosed, stBadRequest:
		switch st {
		case stBusy:
			cnt.Busy++
		case stCapacity:
			cnt.Capacity++
		default:
			cnt.Errors++
		}
		if op != opGet {
			m.vals[local] = unknown
		}
		return ""
	}
	bad := func(want string) string {
		cnt.Violations++
		return fmt.Sprintf("%s request %d (op %d, key %d): status %d value %#x (carried: %v), model holds %#x, want %s",
			c.name(), i, op, local*conns+conn, st, val, hasVal, cur, want)
	}
	cnt.OK++
	switch op {
	case opGet:
		cnt.Gets++
		if st == stNotFound {
			if cur > unknown && !m.lossy {
				cnt.OK--
				return bad("the stored word")
			}
			return ""
		}
		cnt.Hits++
		if cur == unknown {
			return ""
		}
		if st != stOK || !hasVal || val != cur {
			cnt.OK--
			return bad("the stored word or a miss")
		}
	case opPut:
		m.vals[local] = newVal
		if c.countsWrites() { // SET answers +OK and carries no previous word
			if st != stOK {
				cnt.OK--
				return bad("+OK")
			}
			return ""
		}
		switch {
		case cur == unknown:
		case cur == absent && st != stNotFound, cur > unknown && (st != stOK || val != cur):
			cnt.OK--
			return bad("the previous word")
		}
	case opDel:
		m.vals[local] = absent
		if cur == unknown {
			return ""
		}
		if c.countsWrites() { // DEL answers :removed
			if st != stOK || !hasVal || val > 1 || (val == 1 && cur == absent) || (val == 0 && cur > unknown && !m.lossy) {
				cnt.OK--
				return bad("the count removed")
			}
			return ""
		}
		if (cur == absent) != (st == stNotFound) || (st == stOK && val != cur) || st > stNotFound {
			cnt.OK--
			return bad("the removed word")
		}
	case opCAS:
		old := binary.LittleEndian.Uint64(s.buf[s.off[i]+casOldOffset:])
		switch {
		case cur == unknown:
			if st == stOK {
				m.vals[local] = newVal
			}
		case cur == absent:
			if st != stNotFound {
				cnt.OK--
				return bad("NOT_FOUND")
			}
		case cur == old:
			m.vals[local] = newVal
			if st != stOK {
				cnt.OK--
				return bad("a swap")
			}
		default:
			if st != stCASMismatch {
				cnt.OK--
				return bad("CAS_MISMATCH")
			}
		}
	}
	return ""
}

// client is one pipelined connection: a pre-encoded request stream, the
// model its replies are checked against, and a read buffer. Sending and
// receiving touch disjoint fields, so the paced phase may run them on two
// goroutines.
type client struct {
	_           [128]byte // the clients are allocated side by side and each is written per reply by its own goroutine
	nc          net.Conn
	cd          codec
	conn, conns int
	s           *reqStream
	m           *connModel

	pos  int // requests sent so far
	mark int // value of pos at the last takeCounts
	base int // value of pos when s was installed: request i is entry (i-base) % len

	acked     int // replies consumed so far
	rbuf      []byte
	r, w      int
	cnt       counts
	violation string // first oracle violation, if any
	_         [128]byte
}

func dial(addr string, cd codec, conn, conns int) (*client, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("connect to %s: %w", addr, err)
	}
	return &client{nc: nc, cd: cd, conn: conn, conns: conns, rbuf: make([]byte, 256<<10)}, nil
}

// use installs a stream and its model; all earlier requests must have
// been answered.
func (c *client) use(s *reqStream, m *connModel) {
	c.s, c.m, c.base = s, m, c.pos
}

// send writes the next k requests in as few writes as the stream's
// wrap-around allows.
func (c *client) send(k int) error {
	n := c.s.len()
	for k > 0 {
		i := (c.pos - c.base) % n
		run := min(k, n-i)
		if _, err := c.nc.Write(c.s.buf[c.s.off[i]:c.s.off[i+run]]); err != nil {
			return fmt.Errorf("send on connection %d: %w", c.conn, err)
		}
		c.pos += run
		k -= run
	}
	return nil
}

// recv blocks for at least one more byte, then consumes every complete
// reply buffered, checking each. It returns how many it consumed. each,
// when set, sees the index of every reply.
func (c *client) recv(each func(i int)) (int, error) {
	if c.r == c.w {
		c.r, c.w = 0, 0
	} else if c.w == len(c.rbuf) {
		c.w = copy(c.rbuf, c.rbuf[c.r:c.w])
		c.r = 0
	}
	n, err := c.nc.Read(c.rbuf[c.w:])
	if err != nil {
		return 0, fmt.Errorf("receive on connection %d: %w", c.conn, err)
	}
	c.w += n
	got := 0
	for c.r < c.w {
		n, st, val, hasVal, err := c.cd.parseReply(c.rbuf[c.r:c.w])
		if err != nil {
			return got, fmt.Errorf("connection %d: %w", c.conn, err)
		}
		if n == 0 {
			break
		}
		c.r += n
		i := (c.acked - c.base) % c.s.len()
		if v := c.m.check(c.s, c.cd, c.conn, c.conns, i, st, val, hasVal, &c.cnt); v != "" && c.violation == "" {
			c.violation = v
		}
		if each != nil {
			each(c.acked)
		}
		c.acked++
		got++
	}
	return got, nil
}

// drain reads the replies still owed, giving up at deadline; what never
// arrives is counted dropped.
func (c *client) drain(deadline time.Time) {
	c.nc.SetReadDeadline(deadline)
	defer c.nc.SetReadDeadline(time.Time{})
	for c.acked < c.pos {
		if _, err := c.recv(nil); err != nil {
			c.cnt.Dropped += int64(c.pos - c.acked)
			c.acked = c.pos
			c.r, c.w = 0, 0
			return
		}
	}
}

// takeCounts returns and clears the ledger since the last call.
func (c *client) takeCounts() counts {
	out := c.cnt
	out.Attempted = int64(c.pos - c.mark)
	c.mark = c.pos
	c.cnt = counts{}
	return out
}

// sliceCounter buckets reply counts by arrival time, one per connection
// (no sharing), summed after the phase.
type sliceCounter struct {
	t0    time.Time
	width time.Duration
	n     []int64
}

func newSliceCounter(t0 time.Time, width time.Duration, slices int) *sliceCounter {
	return &sliceCounter{t0: t0, width: width, n: make([]int64, slices)}
}

func (s *sliceCounter) add(now time.Time, k int) {
	if i := int(now.Sub(s.t0) / s.width); i >= 0 && i < len(s.n) {
		s.n[i] += int64(k)
	}
}

// closedLoop keeps window requests in flight on c until the deadline:
// after every batch of replies it tops the window back up, so a slow
// server is sent less. Replies are bucketed into sc.
func (c *client) closedLoop(window int, until time.Time, sc *sliceCounter) error {
	for {
		if k := window - (c.pos - c.acked); k > 0 {
			if err := c.send(k); err != nil {
				return err
			}
		}
		k, err := c.recv(nil)
		if err != nil {
			return err
		}
		if c.acked > c.pos {
			return fmt.Errorf("connection %d: %d replies to %d requests", c.conn, c.acked, c.pos)
		}
		now := time.Now()
		sc.add(now, k)
		if !now.Before(until) {
			c.drain(now.Add(5 * time.Second))
			return nil
		}
	}
}

// pacedResult is what one connection's open-loop phase measured.
type pacedResult struct {
	lat  []uint32 // per request, ns from its due time to its reply; 0 = never answered
	late []uint32 // per tick, ns the send started after it was due
}

// tick is the open loop's sending grain: a burst of perTick requests is
// due every tick, and each is timed from the moment its burst was due,
// so a generator or server stall is charged to every request it delays.
const tick = time.Millisecond

// openLoop sends ticks bursts of perTick requests on a fixed schedule
// from t0, whatever the replies do, while a second goroutine reads and
// times them. span, when set, is called for every 64th request.
func (c *client) openLoop(t0 time.Time, ticks, perTick int, span func(req int, due, end time.Time)) (pacedResult, error) {
	res := pacedResult{lat: make([]uint32, ticks*perTick), late: make([]uint32, ticks)}
	first := c.pos
	var (
		wg      sync.WaitGroup
		sendErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for t := 0; t < ticks; t++ {
			due := t0.Add(time.Duration(t) * tick)
			sleepUntil(due)
			res.late[t] = clampNs(time.Since(due))
			if sendErr = c.send(perTick); sendErr != nil {
				c.nc.Close() // unblock the reader
				return
			}
		}
	}()
	total := ticks * perTick
	c.nc.SetReadDeadline(t0.Add(time.Duration(ticks)*tick + 5*time.Second))
	var recvErr error
	for c.acked-first < total {
		var now time.Time
		_, err := c.recv(func(i int) {
			if now.IsZero() {
				now = time.Now()
			}
			j := i - first
			due := t0.Add(time.Duration(j/perTick) * tick)
			res.lat[j] = max(clampNs(now.Sub(due)), 1)
			if span != nil && j%64 == 0 {
				span(j, due, now)
			}
		})
		if err != nil {
			recvErr = err
			break
		}
	}
	c.nc.SetReadDeadline(time.Time{})
	wg.Wait()
	if recvErr != nil && errors.Is(recvErr, os.ErrDeadlineExceeded) {
		// The schedule ended and replies are still missing: dropped.
		c.cnt.Dropped += int64(c.pos - c.acked)
		c.acked, c.r, c.w = c.pos, 0, 0
		recvErr = nil
	}
	if sendErr != nil {
		return res, sendErr
	}
	return res, recvErr
}

// sleepUntil blocks until t with nanosleep(2). time.Sleep is no use at
// this grain: an idle Go runtime parks in epoll with a millisecond
// timeout, so a sub-millisecond sleep comes back a millisecond late.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) just loops
	}
}

func clampNs(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > 4*time.Second {
		return uint32(4 * time.Second)
	}
	return uint32(d)
}
