// RESP2-compatible listener. Alongside the binary protocol the server
// speaks the Redis serialization protocol, so off-the-shelf tooling
// (redis-cli, redis-benchmark, memtier) and real client libraries can
// drive the system for honest external baselines. Both listeners share
// one shard router and one session economy.
//
// Mapping onto the uint64→uint64 map:
//
//   - Keys are arbitrary byte strings, hashed to uint64 with FNV-1a 64.
//     Distinct RESP keys collide only with ~2^-64 probability per pair;
//     the binary protocol's raw-integer keyspace is shared.
//   - Values are byte strings of at most 7 bytes, packed losslessly into
//     the value word as {len:1B | bytes:7B}. Longer values are answered
//     with a typed -ERR (redis-benchmark's default -d 3 fits).
//
// Commands: GET, SET, DEL (variadic), EXISTS (variadic), PING, ECHO,
// INFO, plus the CAS extension:
//
//	CAS key old new  →  :1 swapped | :0 current value != old | $-1 absent
//
// With Config.Cache set, the data commands run through the TTL/LRU
// cache layer (lazy expiry on GET/EXISTS, default TTL and pressure
// eviction on SET) and three more commands come alive:
//
//	SETEX  key seconds value  →  +OK (SET with a per-key TTL)
//	EXPIRE key seconds        →  :1 deadline set | :0 absent
//	TTL    key                →  :N seconds | :-1 no deadline | :-2 absent
//
// Lease exhaustion answers -BUSY (retry after backoff), node-budget
// exhaustion -OOM — both standard Redis error classes. RESP2 has no
// server push, so there is no GOAWAY equivalent: on drain, connections
// are served until their client closes or DrainTimeout cuts them.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/kvmap"
	"repro/internal/lease"
	"repro/internal/oaerr"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/ttlcache"
)

// RESP reader limits: a command may carry at most respMaxArgs arguments
// of at most respMaxBulk bytes each — far past any command we accept, but
// tight enough that a hostile length prefix cannot demand an unbounded
// allocation (same contract as the binary protocol's maxRequestFrame).
const (
	respMaxArgs = 64
	respMaxBulk = 1 << 16
)

// respMaxValue is the longest SET value the word packing can hold.
const respMaxValue = 7

// ErrRESPProtocol reports a malformed or over-limit RESP command; the
// connection is cut after an -ERR reply because the stream cannot be
// resynchronized. It wraps the shared oaerr.ErrBadRequest sentinel, so
// errors.Is classifies it with every other malformed-input failure.
var ErrRESPProtocol = fmt.Errorf("server: RESP protocol error: %w", oaerr.ErrBadRequest)

// --- encoding ------------------------------------------------------------

// AppendRESPSimple appends +s\r\n. Exported (with the other encoders) so
// the zero-alloc proofs and encode benchmarks cover the production path.
func AppendRESPSimple(b []byte, s string) []byte {
	b = append(b, '+')
	b = append(b, s...)
	return append(b, '\r', '\n')
}

// AppendRESPError appends -msg\r\n.
func AppendRESPError(b []byte, msg string) []byte {
	b = append(b, '-')
	b = append(b, msg...)
	return append(b, '\r', '\n')
}

// AppendRESPInt appends :n\r\n.
func AppendRESPInt(b []byte, n int64) []byte {
	b = append(b, ':')
	b = strconv.AppendInt(b, n, 10)
	return append(b, '\r', '\n')
}

// AppendRESPBulk appends $len\r\nbytes\r\n.
func AppendRESPBulk(b, body []byte) []byte {
	b = append(b, '$')
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, '\r', '\n')
	b = append(b, body...)
	return append(b, '\r', '\n')
}

// AppendRESPNil appends the RESP2 nil bulk $-1\r\n.
func AppendRESPNil(b []byte) []byte {
	return append(b, '$', '-', '1', '\r', '\n')
}

// --- value packing -------------------------------------------------------

// packValue packs up to 7 bytes losslessly into a uint64: length in the
// top byte, payload little-endian in the low bytes.
func packValue(v []byte) (uint64, bool) {
	if len(v) > respMaxValue {
		return 0, false
	}
	w := uint64(len(v)) << 56
	for i, c := range v {
		w |= uint64(c) << (8 * i)
	}
	return w, true
}

// appendUnpacked appends a packed value's payload bytes to b.
func appendUnpacked(b []byte, w uint64) []byte {
	n := int(w >> 56)
	if n > respMaxValue {
		n = respMaxValue
	}
	for i := 0; i < n; i++ {
		b = append(b, byte(w>>(8*i)))
	}
	return b
}

// hashKey maps a RESP key to the binary protocol's uint64 keyspace
// (FNV-1a 64).
func hashKey(k []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range k {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// --- decoding ------------------------------------------------------------

// respReader decodes RESP2 commands (arrays of bulk strings, plus the
// inline form redis-cli falls back to), reusing its buffers across
// commands.
type respReader struct {
	br   *bufio.Reader
	args [][]byte
	flat []byte // backing storage for the args of one command
	line []byte
}

func newRESPReader(br *bufio.Reader) *respReader {
	return &respReader{br: br, args: make([][]byte, 0, 8), flat: make([]byte, 0, 256)}
}

// readLine reads up to \r\n, rejecting lines past respMaxBulk.
func (r *respReader) readLine() ([]byte, error) {
	r.line = r.line[:0]
	for {
		chunk, err := r.br.ReadSlice('\n')
		r.line = append(r.line, chunk...)
		if err == nil {
			break
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
		if len(r.line) > respMaxBulk {
			return nil, fmt.Errorf("line exceeds %d bytes: %w", respMaxBulk, ErrRESPProtocol)
		}
	}
	n := len(r.line)
	if n < 2 || r.line[n-2] != '\r' {
		return nil, fmt.Errorf("line without CRLF terminator: %w", ErrRESPProtocol)
	}
	return r.line[:n-2], nil
}

// readCommand decodes one command into an argument vector. The returned
// slices alias the reader's buffers and are valid until the next call.
// io.EOF passes through clean (client closed between commands).
func (r *respReader) readCommand() ([][]byte, error) {
	first, err := r.br.ReadByte()
	if err != nil {
		return nil, err
	}
	r.args = r.args[:0]
	r.flat = r.flat[:0]
	if first != '*' {
		// Inline command: a space-separated line (redis-cli's fallback and
		// the simplest thing a human can type over nc).
		line, err := r.readLine()
		if err != nil {
			return nil, err
		}
		r.flat = append(r.flat, first)
		r.flat = append(r.flat, line...)
		start := -1
		for i := 0; i <= len(r.flat); i++ {
			if i < len(r.flat) && r.flat[i] != ' ' {
				if start < 0 {
					start = i
				}
				continue
			}
			if start >= 0 {
				r.args = append(r.args, r.flat[start:i])
				start = -1
			}
		}
		return r.args, nil
	}
	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	nargs, err := strconv.Atoi(string(line))
	if err != nil || nargs < 0 || nargs > respMaxArgs {
		return nil, fmt.Errorf("bad array header %q: %w", line, ErrRESPProtocol)
	}
	// Bulk lengths are parsed first and bounds-checked before any body
	// read: a hostile $<huge> costs an error, not an allocation.
	offs := make([]int, 0, 16)
	if nargs > 16 {
		offs = make([]int, 0, nargs)
	}
	for i := 0; i < nargs; i++ {
		t, err := r.br.ReadByte()
		if err != nil {
			return nil, unexpectedEOF(err)
		}
		if t != '$' {
			return nil, fmt.Errorf("array element %d is type %q, want bulk string: %w", i, t, ErrRESPProtocol)
		}
		line, err := r.readLine()
		if err != nil {
			return nil, unexpectedEOF(err)
		}
		n, err := strconv.Atoi(string(line))
		if err != nil || n < 0 || n > respMaxBulk {
			return nil, fmt.Errorf("bad bulk length %q: %w", line, ErrRESPProtocol)
		}
		start := len(r.flat)
		r.flat = append(r.flat, make([]byte, n+2)...)
		if _, err := io.ReadFull(r.br, r.flat[start:]); err != nil {
			return nil, unexpectedEOF(err)
		}
		if r.flat[start+n] != '\r' || r.flat[start+n+1] != '\n' {
			return nil, fmt.Errorf("bulk string without CRLF terminator: %w", ErrRESPProtocol)
		}
		r.flat = r.flat[:start+n] // drop the CRLF from the arg view
		offs = append(offs, start, start+n)
	}
	// Build the arg views only after flat stops growing (appends above may
	// reallocate the backing array).
	for i := 0; i < len(offs); i += 2 {
		r.args = append(r.args, r.flat[offs[i]:offs[i+1]])
	}
	return r.args, nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// --- command dispatch ----------------------------------------------------

// upper folds an ASCII command name to upper case in place and returns it.
func upper(b []byte) []byte {
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return b
}

func eq(b []byte, s string) bool { return string(b) == s }

// countCmd bumps the per-opcode request counter and pins the request's
// span attribution to op (RESP commands map onto the binary opcodes:
// SET→put, EXISTS→get, INFO→stats).
func (c *conn) countCmd(op uint8) {
	c.stripe.reqsTotal[op].Add(1)
	c.reqOp = op
}

// respReadLoop is the RESP twin of readLoop: decode, route by key hash,
// lease the target shard lazily, execute in order, encode the reply
// into the request's outbox slot. One command produces exactly one reply (except QUIT, which also
// ends the connection), so pipelining works the RESP way: responses come
// back in command order.
func (c *conn) respReadLoop() {
	rr := newRESPReader(bufio.NewReaderSize(c.nc, 32<<10))
	for {
		c.sp.Begin()
		args, err := rr.readCommand()
		if err != nil {
			if errors.Is(err, ErrRESPProtocol) {
				c.s.badTotal.Add(1)
				c.reply(AppendRESPError(nil, "ERR protocol error: "+err.Error()))
			}
			return
		}
		c.sp.Mark(trace.StageRead)
		c.stripe.reqsRead.Add(1)
		if len(args) == 0 {
			c.reply(AppendRESPError(nil, "ERR empty command"))
			continue
		}
		// Dispatch routes inside respExecute (a variadic DEL touches
		// several shards), so the per-request attribution travels on the
		// conn: respSession fills it on the request's first shard touch.
		c.reqOp, c.reqSess, c.reqTS, c.reqShrd = 0, nil, nil, 0
		seq, dst := c.begin()
		resp, fatal := c.respExecute(dst, upper(args[0]), args[1:])
		c.sp.Mark(trace.StageExec)
		status := respStatusOf(resp)
		c.complete(seq, resp)
		c.sp.Mark(trace.StageQueue)
		var restarts, drains uint64
		if c.reqTS != nil {
			restarts = c.reqTS.Load(obs.Restarts) - c.reqR0
			drains = c.reqTS.Load(obs.DrainPasses) - c.reqD0
		}
		c.finishSpan(c.reqSess, c.reqOp, status, int(c.reqShrd), restarts, drains)
		if fatal {
			return
		}
	}
}

// respStatusOf maps an encoded RESP reply onto the binary protocol's
// status space, so both listeners feed the same histogram/slow-log
// gates: -BUSY → BUSY, -OOM → CAPACITY, other errors → BAD_REQUEST,
// nil bulk → NOT_FOUND, anything else → OK.
func respStatusOf(resp []byte) uint8 {
	if len(resp) == 0 {
		return StOK
	}
	switch resp[0] {
	case '-':
		if len(resp) > 1 {
			switch resp[1] {
			case 'B':
				return StBusy
			case 'O':
				return StCapacity
			}
		}
		return StBadRequest
	case '$':
		if len(resp) >= 2 && resp[1] == '-' {
			return StNotFound
		}
	}
	return StOK
}

// respSession routes a RESP key and returns (shard session, shard,
// errReply): errReply is non-nil when the shard's registry is exhausted
// or closed.
func (c *conn) respSession(key []byte) (*kvmap.Session, uint64, []byte) {
	// Close the running exec leg (argument parse, or the previous key's
	// op in a variadic command) before attributing route/lease time.
	c.sp.Mark(trace.StageExec)
	k := hashKey(key)
	shard := c.s.shards.ShardIndex(k)
	c.sp.Mark(trace.StageRoute)
	sess, err := c.session(shard)
	c.sp.Mark(trace.StageLease)
	if err != nil {
		c.reqShrd = int32(shard)
		if errors.Is(err, lease.ErrClosed) {
			return nil, 0, AppendRESPError(nil, "ERR server is draining")
		}
		c.s.busyTotal.Add(1)
		return nil, 0, AppendRESPError(nil, "BUSY no free session slot on shard "+strconv.Itoa(shard)+"; retry")
	}
	c.s.stripes[shard].ops.Add(1)
	if c.reqSess == nil {
		// First shard touch of this request: pin span attribution and
		// the restart/drain baselines to it.
		c.reqSess = sess
		c.reqShrd = int32(shard)
		c.reqTS = c.s.shards.Shard(shard).Manager().ObsStats().At(sess.TID())
		c.reqR0 = c.reqTS.Load(obs.Restarts)
		c.reqD0 = c.reqTS.Load(obs.DrainPasses)
	}
	return sess, k, nil
}

// respCacheSession routes a RESP key like respSession and wraps the
// shard's session with the shard's TTL/LRU cache layer. Only called
// when c.s.cfg.Cache is set; the wrap is a value, so per-request
// wrapping allocates nothing.
func (c *conn) respCacheSession(key []byte) (ttlcache.Session, uint64, []byte) {
	sess, k, errReply := c.respSession(key)
	if errReply != nil {
		return ttlcache.Session{}, 0, errReply
	}
	return c.s.cfg.Cache.Cache(c.s.shards.ShardIndex(k)).With(sess), k, nil
}

// parseSeconds parses a RESP integer argument of seconds.
func parseSeconds(b []byte) (int64, bool) {
	n, err := strconv.ParseInt(string(b), 10, 32)
	return n, err == nil
}

// respSetErr classifies a cache Set failure: node-budget exhaustion
// (even after eviction relief) answers -OOM like the raw path, but
// non-fatally — the cache already shed what it could, the connection
// and the store remain healthy, and the client may retry.
func (c *conn) respSetErr(err error) []byte {
	if errors.Is(err, lease.ErrCapacityExhausted) {
		c.s.capTotal.Add(1)
		return AppendRESPError(nil, "OOM node budget exhausted after eviction relief")
	}
	return AppendRESPError(nil, "ERR "+err.Error())
}

func (c *conn) respExecute(dst, cmd []byte, args [][]byte) (resp []byte, fatal bool) {
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok || !errors.Is(err, lease.ErrCapacityExhausted) {
				panic(r)
			}
			c.s.capTotal.Add(1)
			c.s.logf("conn %d: capacity exhausted: %v", c.id, err)
			resp, fatal = AppendRESPError(dst, "OOM node budget exhausted"), true
		}
	}()
	var val [respMaxValue]byte // GET's unpacked value, on its way into the reply
	switch {
	case eq(cmd, "PING"):
		c.countCmd(OpPing)
		if len(args) == 1 {
			return AppendRESPBulk(dst, args[0]), false
		}
		return AppendRESPSimple(dst, "PONG"), false
	case eq(cmd, "ECHO"):
		if len(args) != 1 {
			return respWrongArity(dst, cmd), false
		}
		return AppendRESPBulk(dst, args[0]), false
	case eq(cmd, "GET"):
		if len(args) != 1 {
			return respWrongArity(dst, cmd), false
		}
		c.countCmd(OpGet)
		if c.s.cfg.Cache != nil {
			cs, k, errReply := c.respCacheSession(args[0])
			if errReply != nil {
				return errReply, false
			}
			if w, ok := cs.Get(k); ok {
				return AppendRESPBulk(dst, appendUnpacked(val[:0], w)), false
			}
			return AppendRESPNil(dst), false
		}
		sess, k, errReply := c.respSession(args[0])
		if errReply != nil {
			return errReply, false
		}
		if w, ok := sess.Get(k); ok {
			return AppendRESPBulk(dst, appendUnpacked(val[:0], w)), false
		}
		return AppendRESPNil(dst), false
	case eq(cmd, "SET"):
		if len(args) != 2 {
			return respWrongArity(dst, cmd), false
		}
		c.countCmd(OpPut)
		w, ok := packValue(args[1])
		if !ok {
			return AppendRESPError(dst, "ERR value exceeds the 7-byte limit of the u64-packed store"), false
		}
		if c.s.cfg.Cache != nil {
			cs, k, errReply := c.respCacheSession(args[0])
			if errReply != nil {
				return errReply, false
			}
			if err := cs.Set(k, w); err != nil {
				return c.respSetErr(err), false
			}
			return AppendRESPSimple(dst, "OK"), false
		}
		sess, k, errReply := c.respSession(args[0])
		if errReply != nil {
			return errReply, false
		}
		sess.Put(k, w)
		return AppendRESPSimple(dst, "OK"), false
	case eq(cmd, "SETEX"):
		// SETEX key seconds value — SET plus a per-key TTL. Cache-only:
		// without the cache layer the map has nowhere to keep a deadline.
		if len(args) != 3 {
			return respWrongArity(dst, cmd), false
		}
		c.countCmd(OpPut)
		if c.s.cfg.Cache == nil {
			return AppendRESPError(dst, "ERR SETEX requires the cache layer (run with -cache)"), false
		}
		secs, okSecs := parseSeconds(args[1])
		if !okSecs || secs <= 0 {
			return AppendRESPError(dst, "ERR invalid expire time in 'setex' command"), false
		}
		w, ok := packValue(args[2])
		if !ok {
			return AppendRESPError(dst, "ERR value exceeds the 7-byte limit of the u64-packed store"), false
		}
		cs, k, errReply := c.respCacheSession(args[0])
		if errReply != nil {
			return errReply, false
		}
		if err := cs.SetTTL(k, w, time.Duration(secs)*time.Second); err != nil {
			return c.respSetErr(err), false
		}
		return AppendRESPSimple(dst, "OK"), false
	case eq(cmd, "EXPIRE"):
		// EXPIRE key seconds → :1 deadline set, :0 key absent. A
		// non-positive seconds deletes the key, as in Redis.
		if len(args) != 2 {
			return respWrongArity(dst, cmd), false
		}
		c.countCmd(OpPut)
		if c.s.cfg.Cache == nil {
			return AppendRESPError(dst, "ERR EXPIRE requires the cache layer (run with -cache)"), false
		}
		secs, okSecs := parseSeconds(args[1])
		if !okSecs {
			return AppendRESPError(dst, "ERR invalid expire time in 'expire' command"), false
		}
		cs, k, errReply := c.respCacheSession(args[0])
		if errReply != nil {
			return errReply, false
		}
		if secs <= 0 {
			if cs.Remove(k) {
				return AppendRESPInt(dst, 1), false
			}
			return AppendRESPInt(dst, 0), false
		}
		if cs.Expire(k, time.Duration(secs)*time.Second) {
			return AppendRESPInt(dst, 1), false
		}
		return AppendRESPInt(dst, 0), false
	case eq(cmd, "TTL"):
		// TTL key → :-2 absent (or expired), :-1 live without a
		// deadline, :N seconds remaining (rounded up, so a key set with
		// SETEX k 1 v answers :1 immediately).
		if len(args) != 1 {
			return respWrongArity(dst, cmd), false
		}
		c.countCmd(OpGet)
		if c.s.cfg.Cache == nil {
			return AppendRESPError(dst, "ERR TTL requires the cache layer (run with -cache)"), false
		}
		cs, k, errReply := c.respCacheSession(args[0])
		if errReply != nil {
			return errReply, false
		}
		remaining, hasTTL, ok := cs.TTL(k)
		switch {
		case !ok:
			return AppendRESPInt(dst, -2), false
		case !hasTTL:
			return AppendRESPInt(dst, -1), false
		default:
			secs := int64((remaining + time.Second - 1) / time.Second)
			return AppendRESPInt(dst, secs), false
		}
	case eq(cmd, "DEL"):
		if len(args) == 0 {
			return respWrongArity(dst, cmd), false
		}
		c.countCmd(OpDel)
		removed := int64(0)
		for _, key := range args {
			sess, k, errReply := c.respSession(key)
			if errReply != nil {
				return errReply, false
			}
			if cache := c.s.cfg.Cache; cache != nil {
				if cache.Cache(c.s.shards.ShardIndex(k)).With(sess).Remove(k) {
					removed++
				}
			} else if _, ok := sess.Remove(k); ok {
				removed++
			}
		}
		return AppendRESPInt(dst, removed), false
	case eq(cmd, "EXISTS"):
		if len(args) == 0 {
			return respWrongArity(dst, cmd), false
		}
		c.countCmd(OpGet)
		found := int64(0)
		for _, key := range args {
			sess, k, errReply := c.respSession(key)
			if errReply != nil {
				return errReply, false
			}
			if cache := c.s.cfg.Cache; cache != nil {
				if cache.Cache(c.s.shards.ShardIndex(k)).With(sess).Contains(k) {
					found++
				}
			} else if _, ok := sess.Get(k); ok {
				found++
			}
		}
		return AppendRESPInt(dst, found), false
	case eq(cmd, "CAS"):
		// Extension: CAS key old new — the binary protocol's compare-and-
		// swap, with old and new packed like SET values.
		if len(args) != 3 {
			return respWrongArity(dst, cmd), false
		}
		c.countCmd(OpCAS)
		old, ok1 := packValue(args[1])
		nv, ok2 := packValue(args[2])
		if !ok1 || !ok2 {
			return AppendRESPError(dst, "ERR value exceeds the 7-byte limit of the u64-packed store"), false
		}
		sess, k, errReply := c.respSession(args[0])
		if errReply != nil {
			return errReply, false
		}
		swapped, found := sess.CompareAndSwap(k, old, nv)
		switch {
		case swapped:
			return AppendRESPInt(dst, 1), false
		case found:
			return AppendRESPInt(dst, 0), false
		default:
			return AppendRESPNil(dst), false
		}
	case eq(cmd, "INFO"):
		c.countCmd(OpStats)
		var section []byte
		if len(args) >= 1 {
			section = upper(args[0])
		}
		return AppendRESPBulk(nil, c.s.respInfo(nil, section)), false
	case eq(cmd, "COMMAND"), eq(cmd, "CONFIG"):
		// redis-cli and benchmark tools probe these on connect; an empty
		// array keeps them happy without pretending to implement them.
		return append(dst, "*0\r\n"...), false
	case eq(cmd, "SELECT"):
		return AppendRESPSimple(dst, "OK"), false
	case eq(cmd, "QUIT"):
		return AppendRESPSimple(dst, "OK"), true
	}
	return AppendRESPError(dst, "ERR unknown command '"+string(cmd)+"'"), false
}

func respWrongArity(dst, cmd []byte) []byte {
	return AppendRESPError(dst, "ERR wrong number of arguments for '"+string(cmd)+"'")
}

// respInfo renders a redis-style INFO document. section narrows the
// reply to one section (upper-cased by the caller; SERVER, KEYSPACE,
// STATS, LATENCY or HEALTH); empty means all.
//
// The Stats and Latency sections are rendered by reflecting over the
// same Snapshot / CmdLatency structs the STATS op and /stats.json
// serialize, via their JSON field names — INFO cannot drift from the
// binary surfaces because there is no second field list to forget to
// update (TestInfoStatsParity pins this).
func (s *Server) respInfo(b, section []byte) []byte {
	want := func(name string) bool {
		return len(section) == 0 || string(section) == name
	}
	snap := s.snapshot()
	if want("SERVER") {
		b = append(b, "# Server\r\noa_server:1\r\nprotocol:RESP2\r\n"...)
	}
	if want("KEYSPACE") {
		b = append(b, "# Keyspace\r\n"...)
		b = appendInfoInt(b, "shards", int64(snap.Shards))
		for i, n := range snap.ShardOps {
			b = append(b, "shard_ops_"...)
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, ':')
			b = strconv.AppendUint(b, n, 10)
			b = append(b, '\r', '\n')
		}
	}
	if want("STATS") {
		b = append(b, "# Stats\r\n"...)
		b = appendInfoJSON(b, "", snap)
	}
	if want("LATENCY") {
		b = append(b, "# Latency\r\n"...)
		lat := s.latencySnapshot()
		for op := OpGet; op <= OpCAS; op++ {
			b = appendInfoJSON(b, "latency_"+opNames[op]+"_", lat[opNames[op]])
		}
	}
	if want("HEALTH") {
		if h := s.healthDoc(); h != nil {
			// Same reflection path as Stats: the scalar fields of the
			// flight Status (state, firing, transitions, since_ns)
			// become health_* lines; the per-rule array stays on the
			// richer surfaces (/healthz, STATS).
			b = append(b, "# Health\r\n"...)
			b = appendInfoJSON(b, "health_", h)
		}
	}
	return b
}

// appendInfoJSON renders v's scalar JSON fields as prefixed key:value
// INFO lines, sorted by field name. Arrays and nested objects are
// skipped (ShardOps is rendered per-shard in the Keyspace section).
func appendInfoJSON(b []byte, prefix string, v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		return b
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return b
	}
	keys := make([]string, 0, len(m))
	for k, rv := range m {
		if len(rv) > 0 && (rv[0] == '[' || rv[0] == '{') {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = append(b, prefix...)
		b = append(b, k...)
		b = append(b, ':')
		b = append(b, m[k]...)
		b = append(b, '\r', '\n')
	}
	return b
}

func appendInfoInt(b []byte, k string, v int64) []byte {
	b = append(b, k...)
	b = append(b, ':')
	b = strconv.AppendInt(b, v, 10)
	return append(b, '\r', '\n')
}
