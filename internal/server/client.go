package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/trace"
)

// ErrGoAway is returned by Client sends after the server announced a
// drain: stop issuing requests, Wait on the outstanding ones, Close.
var ErrGoAway = errors.New("server: connection draining (GOAWAY received)")

// Call is one in-flight pipelined request. Wait flushes the send buffer
// and blocks until the response (or a connection error) arrives.
type Call struct {
	c      *Client
	op     byte
	start  int64 // send timestamp for the optional latency histogram
	done   chan struct{}
	Status byte
	Val    uint64
	Body   []byte // STATS JSON (copied)
	Err    error
}

// Wait blocks for the response. It flushes the client's send buffer
// first, so a lone Wait never deadlocks on its own unsent request; flush
// errors surface through the read loop, which fails pending Calls.
func (ca *Call) Wait() error {
	ca.c.Flush()
	<-ca.done
	return ca.Err
}

// Client is a pipelined protocol client. Sends buffer locally and go out
// on Flush (or when the buffer fills); responses resolve Calls in send
// order (the server guarantees in-order responses per connection). A
// Client is safe for concurrent use; pipelined throughput comes from
// issuing many Calls before Waiting.
type Client struct {
	nc      net.Conn
	mu      sync.Mutex // serializes encode+enqueue so pending stays in wire order
	bw      *bufio.Writer
	enc     [frameOverhead + 4 + 3*8]byte // request scratch, under mu (CAS is the longest)
	nextID  uint64
	pending chan *Call
	goaway  atomic.Bool
	readErr atomic.Value // error
	done    chan struct{}

	// Latency, when set before the first send, records each Call's
	// send→response round trip (including local queueing and the
	// server's batched flush — the client-observed latency a user
	// program experiences). Load generators read the quantiles for
	// their reports.
	Latency *obs.Histogram
}

// Dial connects a pipelined client. window bounds how many requests may
// be outstanding before sends block (0 = 256, matching the server's
// default in-flight window).
func Dial(addr string, window int) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc, window), nil
}

// NewClient wraps an established connection (useful for in-process tests
// over net.Pipe).
func NewClient(nc net.Conn, window int) *Client {
	if window <= 0 {
		window = 256
	}
	c := &Client{
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, 32<<10),
		pending: make(chan *Call, window),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// GoAway reports whether the server has announced a drain.
func (c *Client) GoAway() bool { return c.goaway.Load() }

func (c *Client) readLoop() {
	defer close(c.done)
	fr := newFrameReader(c.nc, maxResponseFrame)
	for {
		f, err := fr.read()
		if err != nil {
			if err != io.EOF {
				c.readErr.Store(err)
			}
			// Fail whatever is still pending; senders hold no lock here.
			for {
				select {
				case ca := <-c.pending:
					ca.Err = errors.Join(errors.New("server: connection closed before response"), err)
					close(ca.done)
				default:
					return
				}
			}
		}
		if f.ID == 0 && f.Code == StGoAway {
			c.goaway.Store(true)
			continue
		}
		ca := <-c.pending
		ca.Status = f.Code
		if ca.op == OpStats {
			ca.Body = append([]byte(nil), f.Body...)
		} else if len(f.Body) >= 8 {
			ca.Val = f.word(0)
		}
		if c.Latency != nil {
			c.Latency.ObserveNs(uint64(trace.Now() - ca.start))
		}
		close(ca.done)
	}
}

// send encodes one request and registers its Call, preserving wire order.
func (c *Client) send(op byte, args ...uint64) (*Call, error) {
	if c.goaway.Load() {
		return nil, ErrGoAway
	}
	if err, _ := c.readErr.Load().(error); err != nil {
		return nil, err
	}
	ca := &Call{c: c, op: op, start: trace.Now(), done: make(chan struct{})}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	if _, err := c.bw.Write(AppendFrame(c.enc[:0], c.nextID, op, args...)); err != nil {
		return nil, err
	}
	// Enqueue under the lock: pending order must match write order. A
	// full window blocks here — the client-side backpressure mirror of
	// the server's bounded in-flight window.
	c.pending <- ca
	return ca, nil
}

// Flush pushes buffered requests to the socket.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bw.Flush()
}

// Get pipelines a GET.
func (c *Client) Get(key uint64) (*Call, error) { return c.send(OpGet, key) }

// Put pipelines a PUT.
func (c *Client) Put(key, val uint64) (*Call, error) { return c.send(OpPut, key, val) }

// Del pipelines a DEL.
func (c *Client) Del(key uint64) (*Call, error) { return c.send(OpDel, key) }

// CAS pipelines a CAS.
func (c *Client) CAS(key, old, new uint64) (*Call, error) { return c.send(OpCAS, key, old, new) }

// Ping round-trips a PING synchronously.
func (c *Client) Ping() error {
	ca, err := c.send(OpPing)
	if err != nil {
		return err
	}
	return ca.Wait()
}

// Stats round-trips a STATS request and returns the JSON body.
func (c *Client) Stats() ([]byte, error) {
	ca, err := c.send(OpStats)
	if err != nil {
		return nil, err
	}
	if err := ca.Wait(); err != nil {
		return nil, err
	}
	return ca.Body, nil
}

// Close flushes and closes the connection, then waits for the read loop
// (which fails any still-pending Calls) to finish.
func (c *Client) Close() error {
	c.mu.Lock()
	c.bw.Flush()
	c.mu.Unlock()
	err := c.nc.Close()
	<-c.done
	return err
}
