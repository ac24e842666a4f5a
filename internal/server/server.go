package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kvmap"
	"repro/internal/metrics"
	"repro/internal/mpmc"
	"repro/internal/obs"
	"repro/internal/ttlcache"
)

// Config sizes a Server. One of Map or Shards is required; zero values
// elsewhere pick the documented defaults.
type Config struct {
	// Map is the single-structure path: serve one kvmap instance. Kept
	// for existing callers; internally it is wrapped as one shard.
	Map *kvmap.Map
	// Shards is the scale-out path: the keyspace is partitioned across
	// per-core kvmap instances, each with its own arena, session registry
	// and reclamation phases, and each request runs on its key's shard.
	// The server runs min(shards, per-shard registry size − 1) executors,
	// at least one, each holding one session in every shard; the free
	// session is the cache sweeper's. Takes precedence over Map.
	Shards *kvmap.Sharded
	// Cache, when set, layers TTL/LRU cache semantics over the shards on
	// the RESP surface: GET applies lazy expiry, SET takes the cache's
	// default TTL and evicts under pressure instead of failing, and the
	// EXPIRE/TTL/SETEX commands come alive. It must wrap the same
	// sharded map the server serves; when Shards (and Map) are nil the
	// server adopts Cache.Shards(). The binary protocol keeps serving
	// the raw map words underneath: the executors pick the op table by
	// the connection's listener.
	Cache *ttlcache.Sharded
	// Window bounds the per-connection in-flight pipeline: responses
	// executed but not yet written. When the writer falls this far behind,
	// the reader stops reading from the socket, so backpressure reaches
	// the client as TCP flow control. Default 256.
	Window int
	// DrainTimeout bounds Shutdown: connections whose client has not
	// closed by then are force-closed. Default 5s.
	DrainTimeout time.Duration
	// SlowThreshold is the server-side span duration (route+queue+exec,
	// excluding socket wait) past which a request is recorded in
	// the slow-request ring at /debug/slowlog. Default 1ms.
	SlowThreshold time.Duration
	// SlowLogSize is the slow-request ring's capacity, rounded up to a
	// power of two. Default 256.
	SlowLogSize int
	// SpanSample emits every Nth data request's span into the shard's
	// trace ring (when tracing is enabled); 1 traces every request.
	// Latency histograms and the slow log see every request regardless —
	// sampling only thins the trace timeline. Default 64.
	SpanSample int
	// RingSize bounds the requests queued on each executor's ring, shared
	// by the connections that executor serves. A full ring is the
	// backpressure signal: producers wait RingWait, then answer BUSY.
	// Default 1024.
	RingSize int
	// RingWait bounds how long a request waits for space on a full
	// executor ring before the server answers BUSY. Default 2ms.
	RingWait time.Duration
	// MaxConns caps concurrent connections over both listeners (the
	// executors' conn-table size and the ring producer-session registry).
	// A connection past the cap is answered one typed refusal — a BUSY
	// frame with id 0, or -ERR max number of clients reached — and closed.
	// Default 1024.
	MaxConns int
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)

	// ExecGate, when set, is called by each executor, with its index, at
	// the top of every drain pass. In-package tests and internal/e2e's
	// TestHealthWiring stall an executor here — and with it every
	// connection it serves — to pin queue-stage attribution, ring-full
	// backpressure and the health engine's ring-saturation rule. Never
	// set in production.
	ExecGate func(executor int)
}

// shardStripe is one cache-padded counter block. The per-request counters
// used to be single shared atomics — three cross-core cache-line bounces
// per request, the kind of hidden serial point sharding exists to remove —
// so they are striped by shard (data ops) and by connection (protocol
// ops), and summed at snapshot time.
type shardStripe struct {
	ops       atomic.Uint64 // data requests routed to this shard
	reqsRead  atomic.Uint64 // requests decoded off sockets
	respsSent atomic.Uint64 // responses handed to writers
	reqsTotal [8]atomic.Uint64
	_         [128 - 11*8]byte // pad the 88 bytes of counters to two cache lines
}

// Server serves the wire protocols over listeners. One Server serves one
// sharded keyspace through its executors, each holding a session in
// every shard and serving the connections assigned to it; connections
// lease nothing.
type Server struct {
	cfg    Config
	shards *kvmap.Sharded

	mu     sync.Mutex
	lns    []net.Listener
	conns  map[*conn]struct{}
	closed bool

	nextConnID atomic.Uint64
	draining   atomic.Bool

	// Hot striped counters (one stripe per shard) plus cold shared ones,
	// exported via RegisterObs and the STATS op.
	stripes     []shardStripe
	stripeMask  uint64
	active      atomic.Int64  // open connections
	connsTotal  atomic.Uint64 // connections accepted
	busyTotal   atomic.Uint64 // BUSY responses (ring full past RingWait) and MaxConns refusals
	capTotal    atomic.Uint64 // CAPACITY responses
	badTotal    atomic.Uint64 // BAD_REQUEST / FRAME_TOO_BIG responses
	goawaysSent atomic.Uint64
	forceClosed atomic.Uint64 // conns cut by DrainTimeout

	slowlog *slowLog

	// healthFn, when set via SetHealth, supplies the flight recorder's
	// health document; it rides along in STATS bodies and the RESP
	// `INFO health` section. Stored as func() any so the server stays
	// decoupled from the flight package.
	healthFn atomic.Value

	// The execution machinery: the shared ring group (one bounded MPMC
	// queue per executor), the executors, and the slot table executors use
	// to find a request's connection.
	rings     *mpmc.Group
	execs     []*executor
	execStop  chan struct{}
	execWG    sync.WaitGroup
	tab       []atomic.Pointer[conn]
	freeSlots []uint32 // guarded by mu
	ringFull  atomic.Uint64
}

var opNames = [8]string{"", "get", "put", "del", "cas", "ping", "stats", "goaway"}

// New builds a Server around cfg.Shards (or cfg.Map, wrapped as one
// shard).
func New(cfg Config) *Server {
	if cfg.Shards == nil && cfg.Map == nil && cfg.Cache != nil {
		cfg.Shards = cfg.Cache.Shards()
	}
	if cfg.Shards == nil {
		if cfg.Map == nil {
			panic("server: Config.Map, Config.Shards or Config.Cache is required")
		}
		cfg.Shards = kvmap.ShardedOf(cfg.Map)
	}
	if cfg.Cache != nil && cfg.Cache.Shards() != cfg.Shards {
		panic("server: Config.Cache must wrap Config.Shards")
	}
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = time.Millisecond
	}
	if cfg.SlowLogSize <= 0 {
		cfg.SlowLogSize = 256
	}
	if cfg.SpanSample <= 0 {
		cfg.SpanSample = 64
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	if cfg.RingWait <= 0 {
		cfg.RingWait = 2 * time.Millisecond
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 1024
	}
	s := &Server{
		cfg:     cfg,
		shards:  cfg.Shards,
		conns:   make(map[*conn]struct{}),
		stripes: make([]shardStripe, cfg.Shards.NumShards()),
		slowlog: newSlowLog(cfg.SlowLogSize),
	}
	s.stripeMask = uint64(len(s.stripes) - 1)
	s.startExecutors()
	return s
}

// numExecutors is how many executors serve sh: one per shard, but at most
// one fewer than a shard's registry size, so every shard keeps a session
// free for the cache sweeper — and at least one, which a one-session
// registry leaves the sweeper no room beside. The shards share one
// core.Config, so shard 0's registry size is every shard's.
func numExecutors(sh *kvmap.Sharded) int {
	return max(1, min(sh.NumShards(), sh.Shard(0).Manager().Lessor().Cap()-1))
}

// startExecutors builds the execution machinery: the shared ring group
// (one ring per executor; a producer session per connection + a consumer
// session per executor, hence MaxConns+executors contexts), the conn slot
// table, and the executor goroutines, each taking its long-lived map
// lease in every shard now — before anything else can compete for them.
func (s *Server) startExecutors() {
	n := numExecutors(s.shards)
	s.rings = mpmc.NewGroup(core.Config{MaxThreads: s.cfg.MaxConns + n}, n, s.cfg.RingSize)
	s.tab = make([]atomic.Pointer[conn], s.cfg.MaxConns)
	s.freeSlots = make([]uint32, s.cfg.MaxConns)
	for i := range s.freeSlots {
		s.freeSlots[i] = uint32(s.cfg.MaxConns - 1 - i)
	}
	s.execStop = make(chan struct{})
	s.execs = make([]*executor, n)
	for i := range s.execs {
		e, err := newExecutor(s, i)
		if err != nil {
			// Only possible when something else holds sessions the count
			// above assumed free — worth failing loudly at construction.
			panic("server: cannot lease the sessions of executor " +
				strconv.Itoa(i) + ": " + err.Error())
		}
		s.execs[i] = e
		s.execWG.Add(1)
		go e.run()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// NumShards returns how many keyspace shards the server routes across.
func (s *Server) NumShards() int { return len(s.stripes) }

func (s *Server) sumStripes(f func(*shardStripe) uint64) uint64 {
	var n uint64
	for i := range s.stripes {
		n += f(&s.stripes[i])
	}
	return n
}

// RegisterObs registers the server's gauges and counters (oa_server_*)
// with reg. Call once, before Serve.
func (s *Server) RegisterObs(reg *obs.Registry) {
	reg.Gauge("oa_server_connections", "open client connections",
		func() float64 { return float64(s.active.Load()) })
	reg.Counter("oa_server_connections_total", "connections accepted",
		func() uint64 { return s.connsTotal.Load() })
	reg.CounterVec("oa_server_requests_total", "requests served by opcode", "op",
		len(opNames), func(i int) uint64 {
			return s.sumStripes(func(st *shardStripe) uint64 { return st.reqsTotal[i].Load() })
		})
	reg.Gauge("oa_server_shards", "keyspace shards the router spreads over",
		func() float64 { return float64(s.NumShards()) })
	reg.CounterVec("oa_server_shard_ops", "data requests routed to each keyspace shard (BUSY refusals included)", "shard",
		len(s.stripes), func(i int) uint64 { return s.stripes[i].ops.Load() })
	reg.GaugeVec("oa_server_shard_sessions_leased", "sessions currently leased per shard", "shard",
		s.shards.NumShards(), func(i int) float64 {
			return float64(s.shards.Shard(i).Manager().Lessor().Leased())
		})
	reg.Counter("oa_server_busy_total", "requests answered BUSY (executor ring full) and connections refused past MaxConns",
		func() uint64 { return s.busyTotal.Load() })
	reg.Counter("oa_server_capacity_total", "requests answered CAPACITY",
		func() uint64 { return s.capTotal.Load() })
	reg.Counter("oa_server_goaways_total", "GOAWAY frames sent",
		func() uint64 { return s.goawaysSent.Load() })
	reg.Counter("oa_server_force_closed_total", "connections cut at DrainTimeout",
		func() uint64 { return s.forceClosed.Load() })
	reg.Counter("oa_server_requests_read_total", "requests decoded off sockets",
		func() uint64 { return s.sumStripes(func(st *shardStripe) uint64 { return st.reqsRead.Load() }) })
	reg.Counter("oa_server_responses_sent_total", "responses queued to writers",
		func() uint64 { return s.sumStripes(func(st *shardStripe) uint64 { return st.respsSent.Load() }) })
	reg.Counter("oa_server_bad_requests_total", "requests answered BAD_REQUEST or FRAME_TOO_BIG",
		func() uint64 { return s.badTotal.Load() })
	reg.Counter("oa_server_slow_requests_total", "requests whose server-side span crossed SlowThreshold",
		func() uint64 { return s.slowlog.total() })
	reg.GaugeVec("oa_server_ring_depth", "requests queued on each executor's bounded ring", "executor",
		len(s.execs), func(i int) float64 { return float64(s.execs[i].depth.Load()) })
	reg.Gauge("oa_server_ring_cap", "bound on requests queued per executor ring",
		func() float64 { return float64(s.cfg.RingSize) })
	reg.Counter("oa_server_ring_full_total", "requests answered BUSY because the executor ring stayed full past RingWait",
		func() uint64 { return s.ringFull.Load() })
	reg.Counter("oa_server_exec_batches_total", "executor drain batches",
		func() uint64 {
			var n uint64
			for _, e := range s.execs {
				n += e.batches.Load()
			}
			return n
		})
	reg.Counter("oa_server_exec_batched_ops_total", "data requests executed via the executor rings",
		func() uint64 {
			var n uint64
			for _, e := range s.execs {
				n += e.ops.Load()
			}
			return n
		})
	reg.Trace(s.rings.Manager().TraceRecorder())
	for op := OpGet; op <= OpCAS; op++ {
		reg.HistogramVec("oa_server_latency_"+opNames[op]+"_seconds",
			"server-side "+opNames[op]+" latency (route+queue+exec, socket wait excluded)",
			"executor", len(s.execs),
			func(i int) *metrics.Histogram { return &s.execs[i].lat[op] })
	}
	reg.Handle("/debug/slowlog", http.HandlerFunc(s.serveSlowLog))
}

// Serve accepts binary-protocol connections on ln until Shutdown (which
// returns nil here) or a listener error. It owns ln and closes it on
// return.
func (s *Server) Serve(ln net.Listener) error { return s.serve(ln, protoBinary) }

// ServeRESP accepts RESP2 connections on ln — the listener off-the-shelf
// Redis tooling (redis-cli, redis-benchmark, memtier) talks to. Both
// listeners share one request path — router, rings, executors — and a
// Server may run both concurrently.
func (s *Server) ServeRESP(ln net.Listener) error { return s.serve(ln, protoRESP) }

func (s *Server) serve(ln net.Listener, proto uint8) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	defer ln.Close()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		c := s.register(nc, proto)
		if c == nil {
			s.refuse(nc, proto)
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connsTotal.Add(1)
		s.active.Add(1)
		if s.draining.Load() {
			// Raced with Shutdown's broadcast: deliver the GOAWAY ourselves.
			c.sendGoAway()
		}
		go c.run()
	}
}

// Shutdown drains the server: stop accepting, send GOAWAY everywhere,
// and wait for clients to finish their pipelines and close — up to
// DrainTimeout, after which the stragglers are cut. It reports how many
// connections were force-closed. (RESP has no in-band drain signal; RESP
// connections drain when their client closes, or are cut at the
// timeout.)
func (s *Server) Shutdown() int {
	if s.draining.Swap(true) {
		return 0 // already draining; first caller reports
	}
	s.mu.Lock()
	for _, ln := range s.lns {
		ln.Close()
	}
	for c := range s.conns {
		c.sendGoAway()
	}
	s.mu.Unlock()

	deadline := time.Now().Add(s.cfg.DrainTimeout)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	var forced int
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.nc.Close()
		forced++
	}
	s.mu.Unlock()
	s.forceClosed.Add(uint64(forced))

	// Wait for the cut connections' goroutines to exit.
	for {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Every connection is gone, so every ring entry has been completed
	// and counted (the zero-drop ledger covers the rings). Now stop the
	// executors; each final-drains its ring and releases its leases.
	close(s.execStop)
	s.execWG.Wait()
	s.rings.Close()
	return forced
}

// Snapshot is the server-side counter block of a STATS response.
// Session fields aggregate across shards; ring_depth is indexed by
// executor, shard_ops by shard.
type Snapshot struct {
	Connections   int64    `json:"connections"`
	ConnsTotal    uint64   `json:"connections_total"`
	RequestsRead  uint64   `json:"requests_read"`
	ResponsesSent uint64   `json:"responses_sent"`
	Busy          uint64   `json:"busy"`
	Capacity      uint64   `json:"capacity"`
	BadRequests   uint64   `json:"bad_requests"`
	SlowRequests  uint64   `json:"slow_requests"`
	GoAways       uint64   `json:"goaways"`
	ForceClosed   uint64   `json:"force_closed"`
	Shards        int      `json:"shards"`
	ShardOps      []uint64 `json:"shard_ops"`
	SessionsCap   int      `json:"sessions_cap"`
	SessionsInUse int      `json:"sessions_leased"`
	SessionGrants uint64   `json:"session_grants"`
	// The rings and executors every data request crosses.
	Executors  int    `json:"executors"`
	RingCap    int    `json:"ring_cap"`
	RingDepth  []int  `json:"ring_depth"`
	RingFull   uint64 `json:"ring_full"`
	Batches    uint64 `json:"exec_batches"`
	RingNodes  uint64 `json:"ring_nodes"`
	BatchedOps uint64 `json:"exec_batched_ops"`
	MaxBatch   uint64 `json:"exec_max_batch"`
}

func (s *Server) snapshot() Snapshot {
	shardOps := make([]uint64, len(s.stripes))
	for i := range s.stripes {
		shardOps[i] = s.stripes[i].ops.Load()
	}
	depth := make([]int, len(s.execs))
	var batches, nodes, batchedOps, maxBatch uint64
	for i, e := range s.execs {
		depth[i] = int(e.depth.Load())
		batches += e.batches.Load()
		nodes += e.nodes.Load()
		batchedOps += e.ops.Load()
		maxBatch = max(maxBatch, e.maxBatch.Load())
	}
	return Snapshot{
		Executors:     len(s.execs),
		RingCap:       s.cfg.RingSize,
		RingDepth:     depth,
		RingFull:      s.ringFull.Load(),
		Batches:       batches,
		RingNodes:     nodes,
		BatchedOps:    batchedOps,
		MaxBatch:      maxBatch,
		Connections:   s.active.Load(),
		ConnsTotal:    s.connsTotal.Load(),
		RequestsRead:  s.sumStripes(func(st *shardStripe) uint64 { return st.reqsRead.Load() }),
		ResponsesSent: s.sumStripes(func(st *shardStripe) uint64 { return st.respsSent.Load() }),
		Busy:          s.busyTotal.Load(),
		Capacity:      s.capTotal.Load(),
		BadRequests:   s.badTotal.Load(),
		SlowRequests:  s.slowlog.total(),
		GoAways:       s.goawaysSent.Load(),
		ForceClosed:   s.forceClosed.Load(),
		Shards:        s.shards.NumShards(),
		ShardOps:      shardOps,
		SessionsCap:   s.shards.SessionsCap(),
		SessionsInUse: s.shards.SessionsLeased(),
		SessionGrants: s.shards.SessionGrants(),
	}
}

// CmdLatency summarizes one command's server-side latency histogram,
// merged across executors. All durations are nanoseconds; quantiles are
// log₂-bucket upper bounds.
type CmdLatency struct {
	Count  uint64 `json:"count"`
	MeanNs uint64 `json:"mean_ns"`
	P50Ns  uint64 `json:"p50_ns"`
	P90Ns  uint64 `json:"p90_ns"`
	P99Ns  uint64 `json:"p99_ns"`
	P999Ns uint64 `json:"p999_ns"`
	MaxNs  uint64 `json:"max_ns"`
}

// latencySnapshot merges each command's per-executor histograms and
// summarizes them. This one snapshot feeds STATS, stats.json's server
// block and the RESP INFO latency section, so the three surfaces cannot
// drift.
func (s *Server) latencySnapshot() map[string]CmdLatency {
	out := make(map[string]CmdLatency, OpCAS)
	for op := OpGet; op <= OpCAS; op++ {
		var merged metrics.Histogram
		for _, e := range s.execs {
			merged.Merge(&e.lat[op])
		}
		snap := merged.Snapshot()
		cl := CmdLatency{Count: snap.Count, MaxNs: snap.Max}
		if snap.Count > 0 {
			cl.MeanNs = snap.Sum / snap.Count
			cl.P50Ns = snap.QuantileNs(0.50)
			cl.P90Ns = snap.QuantileNs(0.90)
			cl.P99Ns = snap.QuantileNs(0.99)
			cl.P999Ns = snap.QuantileNs(0.999)
		}
		out[opNames[op]] = cl
	}
	return out
}

// SetHealth registers the health-document supplier (the flight
// recorder's Status). Call before Serve; the document is embedded in
// every STATS body under "health" and rendered by `INFO health`.
func (s *Server) SetHealth(fn func() any) { s.healthFn.Store(fn) }

// healthDoc returns the current health document, or nil when no
// supplier is registered.
func (s *Server) healthDoc() any {
	if fn, ok := s.healthFn.Load().(func() any); ok && fn != nil {
		return fn()
	}
	return nil
}

// statsBody builds the STATS JSON: server counters, per-command latency
// summaries, the health block when a flight recorder is attached, the
// cache block when the TTL/LRU layer is configured, plus per-shard
// reclamation stats ("map" stays the shard-0 block for pre-sharding
// consumers).
func (s *Server) statsBody() []byte {
	var cacheStats any
	if s.cfg.Cache != nil {
		cacheStats = s.cfg.Cache.Stats()
	}
	b, err := json.Marshal(struct {
		Server  Snapshot              `json:"server"`
		Latency map[string]CmdLatency `json:"latency"`
		Health  any                   `json:"health,omitempty"`
		Cache   any                   `json:"cache,omitempty"`
		Map     any                   `json:"map"`
		Maps    any                   `json:"map_shards"`
	}{s.snapshot(), s.latencySnapshot(), s.healthDoc(), cacheStats, s.shards.Shard(0).Stats(), s.shards.Stats()})
	if err != nil {
		return []byte(`{}`)
	}
	return b
}

// FinalStats returns the STATS JSON document plus a newline — the
// machine-readable shutdown dump commands print on stdout.
func (s *Server) FinalStats() []byte {
	return append(s.statsBody(), '\n')
}

// Wire protocol selector for a connection.
const (
	protoBinary = iota
	protoRESP
)

// conn is one client connection: a reader goroutine that decodes and
// hands bursts to its executor's ring (batch.go), completions arriving
// from that executor, and a writer goroutine that batches and flushes
// the outbox.
type conn struct {
	s      *Server
	id     uint64
	proto  uint8
	cached bool // RESP with Config.Cache set: executors run its ops through the cache layer
	nc     net.Conn
	cd     codec
	ob     outbox // sequence-ordered in-flight window
	gaOnce sync.Once
	stripe *shardStripe // protocol-op counter stripe (by conn id)

	// slot indexes the server's conn table; exec is the executor that
	// serves the connection for its lifetime; prod is the connection's
	// ring producer session; inflight counts enqueued-but-incomplete
	// requests — the conn's teardown and slot reuse wait for it to drain
	// (a vanished client only retires its own pending entries).
	slot     uint32
	exec     *executor
	prod     *mpmc.Session
	inflight atomic.Int64

	// Reader-goroutine state: the burst being staged, how many of its data
	// ops route to each shard, the sampling counter of ring trace events,
	// and where the variadic command being staged stands.
	b        burst
	shardOps []uint64
	spanSeq  uint64
	joinLeft int    // its keys not yet staged
	joinTail uint64 // the sequence of its last key, where its reply goes

	join atomic.Uint64 // the variadic command in flight (settle)
}

func (c *conn) sendGoAway() {
	c.gaOnce.Do(func() {
		if c.proto == protoBinary {
			c.s.goawaysSent.Add(1)
		}
		c.ob.pushGoAway()
	})
}

// register builds the connection for nc: a conn-table slot (how executors
// find it), the executor with the fewest open connections — its seat
// until unregister — a ring producer session and its listener's codec. It
// returns nil when MaxConns connections are already open.
func (s *Server) register(nc net.Conn, proto uint8) *conn {
	s.mu.Lock()
	if len(s.freeSlots) == 0 {
		s.mu.Unlock()
		return nil
	}
	slot := s.freeSlots[len(s.freeSlots)-1]
	s.freeSlots = s.freeSlots[:len(s.freeSlots)-1]
	e := s.execs[0]
	for _, x := range s.execs[1:] {
		if x.conns < e.conns {
			e = x
		}
	}
	e.conns++
	s.mu.Unlock()
	prod, err := s.rings.Acquire()
	if err != nil {
		s.mu.Lock()
		s.freeSlots = append(s.freeSlots, slot)
		e.conns--
		s.mu.Unlock()
		return nil
	}
	c := &conn{
		s:        s,
		id:       s.nextConnID.Add(1),
		proto:    proto,
		cached:   proto == protoRESP && s.cfg.Cache != nil,
		nc:       nc,
		slot:     slot,
		exec:     e,
		prod:     prod,
		shardOps: make([]uint64, s.shards.NumShards()),
	}
	if proto == protoRESP {
		c.cd = newRESPReader(bufio.NewReaderSize(burstReader{c}, 32<<10), s)
	} else {
		c.cd = &binCodec{fr: newFrameReader(burstReader{c}, maxRequestFrame), s: s}
	}
	c.ob.init(s.cfg.Window)
	c.stripe = &s.stripes[c.id&s.stripeMask]
	s.tab[slot].Store(c)
	return c
}

// refuse answers a connection past MaxConns with its listener's typed
// refusal and closes it, on the accept loop: a few bytes into a fresh
// socket's empty send buffer do not block, and the deadline keeps a peer
// that contrives otherwise from holding up the next accept.
func (s *Server) refuse(nc net.Conn, proto uint8) {
	s.busyTotal.Add(1)
	msg := AppendFrame(nil, 0, StBusy)
	if proto == protoRESP {
		msg = AppendRESPError(nil, "ERR max number of clients reached")
	}
	nc.SetWriteDeadline(time.Now().Add(10 * time.Millisecond))
	nc.Write(msg) // best effort: the close that follows is the refusal either way
	nc.Close()
}

// unregister frees c's table slot and executor seat for reuse. Only
// called after the connection's in-flight count drained, so no executor
// can still route a completion to the recycled slot.
func (s *Server) unregister(c *conn) {
	s.tab[c.slot].Store(nil)
	c.prod.Release()
	s.mu.Lock()
	s.freeSlots = append(s.freeSlots, c.slot)
	c.exec.conns--
	s.mu.Unlock()
}

func (c *conn) run() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.writeLoop()
	}()
	c.readLoop()
	// Disconnect retires only this connection's pending ring entries:
	// wait for its executor to complete them (they count toward
	// the response ledger even when the client vanished mid-batch), then
	// tear the outbox down and recycle the slot.
	for c.inflight.Load() != 0 {
		time.Sleep(20 * time.Microsecond)
	}
	c.ob.close()
	wg.Wait()
	c.nc.Close()
	c.s.unregister(c)
	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
	c.s.active.Add(-1)
}

// writeLoop batches responses: it takes the contiguous completed run off
// the outbox, copies the slots into the buffered writer, and flushes
// only when nothing more is immediately releasable (or the buffer
// fills), so a pipelining client costs ~one syscall per batch, not per
// response. The GOAWAY push frame exists only in the binary protocol;
// RESP2 has no server-initiated signal, so RESP connections just observe
// the drain as their eventual close. A dead socket flips the loop into
// discard mode — it keeps consuming completions so neither the reader
// (window space) nor the executors' ledger ever depends on the peer.
func (c *conn) writeLoop() {
	bw := bufio.NewWriterSize(c.nc, 32<<10)
	dead := false
	var ga [frameOverhead + 4]byte
	for {
		lo, hi, goaway, closed := c.ob.take()
		if goaway {
			if c.proto == protoBinary && !dead {
				bw.Write(AppendFrame(ga[:0], 0, StGoAway))
				if bw.Flush() != nil {
					dead = true
				}
			}
			continue
		}
		for seq := lo; seq != hi && !dead; seq++ {
			if _, err := bw.Write(c.ob.bytes(seq)); err != nil {
				dead = true
			}
		}
		c.ob.release(lo, hi)
		if closed {
			if !dead {
				bw.Flush()
			}
			return
		}
		if !dead && bw.Buffered() > 0 && !c.ob.ready() {
			if bw.Flush() != nil {
				dead = true
			}
		}
	}
}
