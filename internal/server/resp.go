// RESP2-compatible listener. Alongside the binary protocol the server
// speaks the Redis serialization protocol, so off-the-shelf tooling
// (redis-cli, redis-benchmark, memtier) and real client libraries can
// drive the system for honest external baselines. This file is the RESP
// codec — the decoder into the command IR of codec.go and the reply
// encoder — and the INFO document; everything between decode and encode
// is the one request path of batch.go, shared with the binary listener.
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
// A variadic DEL or EXISTS is staged one key per outbox slot, so its keys
// run on their shards' maps like any other request, and joins into the
// one :n reply the command owes (conn.settle).
//
// An executor ring that stays full past RingWait answers -BUSY (retry after
// backoff), node-budget exhaustion -OOM — both standard Redis error
// classes — and neither costs the connection. RESP2 has no server push,
// so there is no GOAWAY equivalent: on drain, connections are served
// until their client closes or DrainTimeout cuts them.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/oaerr"
)

// RESP reader limits: a command may carry at most respMaxArgs arguments
// (a name and 64 keys) of at most respMaxBulk bytes each — far past any
// command we accept, but tight enough that a hostile length prefix cannot
// demand an unbounded allocation (same contract as the binary protocol's
// maxRequestFrame).
const (
	respMaxArgs = 65
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

// respReader is the RESP codec. It decodes RESP2 commands (arrays of bulk
// strings, plus the inline form redis-cli falls back to), reusing its
// buffers across commands.
type respReader struct {
	br   *bufio.Reader
	s    *Server // what a command means depends on Config.Cache; INFO documents
	args [][]byte
	flat []byte // backing storage for the args of one command
	line []byte

	rest    [][]byte         // keys of the variadic command being handed out, after the first
	restOp  uint8            // its opcode
	scratch [slotInline]byte // the reply next hands back
}

func newRESPReader(br *bufio.Reader, s *Server) *respReader {
	return &respReader{br: br, s: s, args: make([][]byte, 0, 8), flat: make([]byte, 0, 256)}
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
				if len(r.args) == respMaxArgs { // the array form's limit, which no header announced here
					return nil, fmt.Errorf("inline command of more than %d arguments: %w", respMaxArgs, ErrRESPProtocol)
				}
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

// --- the codec: commands in, replies out -----------------------------------

// upper folds an ASCII command name to upper case in place and returns it.
func upper(b []byte) []byte {
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return b
}

// respData names the data commands: the IR opcode each decodes into and
// how many arguments it takes (negative: at least that many, one key
// each). argc 0: not a data command.
func respData(name []byte) (op uint8, argc int) {
	switch string(name) {
	case "GET":
		return OpGet, 1
	case "SET":
		return OpPut, 2
	case "DEL":
		return opRemove, -1
	case "EXISTS":
		return opExists, -1
	case "CAS":
		return OpCAS, 3
	case "SETEX":
		return opSetEX, 3
	case "EXPIRE":
		return opExpire, 2
	case "TTL":
		return opTTL, 1
	}
	return 0, 0
}

// infoSections are the documents OpStats selects by index; the last, for
// a section nobody knows, is empty.
var infoSections = [...]string{"", "SERVER", "KEYSPACE", "STATS", "LATENCY", "HEALTH", "-"}

const respValueTooLong = "ERR value exceeds the 7-byte limit of the u64-packed store"

func (r *respReader) next() (cmd command, reply []byte, err error) {
	if len(r.rest) > 0 {
		cmd = command{op: r.restOp, key: hashKey(r.rest[0])}
		r.rest = r.rest[1:]
		return cmd, nil, nil
	}
	args, err := r.readCommand()
	if err != nil {
		if errors.Is(err, ErrRESPProtocol) { // answered, then cut: the stream cannot be resynchronized
			return command{bad: true}, AppendRESPError(nil, "ERR protocol error: "+err.Error()), err
		}
		return cmd, nil, err
	}
	dst := r.scratch[:0]
	if len(args) == 0 {
		return cmd, AppendRESPError(dst, "ERR empty command"), nil
	}
	name, args := upper(args[0]), args[1:]
	op, argc := respData(name)
	if argc == 0 {
		return r.protocolOp(dst, name, args)
	}
	if len(args) != argc && (argc > 0 || len(args) < -argc) {
		return cmd, wrongArity(dst, name), nil
	}
	// Past its arity check a command is counted under its class, whatever
	// it goes on to answer.
	cmd = command{op: opClass[op], key: hashKey(args[0])}
	var ok1, ok2 bool
	switch op {
	case OpPut:
		cmd.a1, ok1 = packValue(args[1])
		if !ok1 {
			return cmd, AppendRESPError(dst, respValueTooLong), nil
		}
	case OpCAS:
		cmd.a1, ok1 = packValue(args[1])
		cmd.a2, ok2 = packValue(args[2])
		if !ok1 || !ok2 {
			return cmd, AppendRESPError(dst, respValueTooLong), nil
		}
	case opSetEX, opExpire, opTTL:
		// Cache-only: without the layer the map has nowhere to keep a deadline.
		if r.s.cfg.Cache == nil {
			return cmd, AppendRESPError(dst, "ERR "+string(name)+" requires the cache layer (run with -cache)"), nil
		}
		if op == opTTL {
			break
		}
		secs, err := strconv.ParseInt(string(args[1]), 10, 32)
		if err != nil || (op == opSetEX && secs <= 0) {
			return cmd, AppendRESPError(dst, "ERR invalid expire time in '"+strings.ToLower(string(name))+"' command"), nil
		}
		cmd.a1 = uint64(secs)
		if op == opSetEX {
			if cmd.a2, ok1 = packValue(args[2]); !ok1 {
				return cmd, AppendRESPError(dst, respValueTooLong), nil
			}
		}
	case opRemove, opExists:
		if len(args) > 1 {
			cmd.keys, r.rest, r.restOp = len(args), args[1:], op
		}
	}
	cmd.op = op
	return cmd, nil, nil
}

func wrongArity(dst, name []byte) []byte {
	return AppendRESPError(dst, "ERR wrong number of arguments for '"+string(name)+"'")
}

// protocolOp answers the commands that need no map.
func (r *respReader) protocolOp(dst, name []byte, args [][]byte) (cmd command, reply []byte, err error) {
	switch string(name) {
	case "PING":
		if len(args) == 1 {
			return command{op: OpPing}, AppendRESPBulk(dst, args[0]), nil
		}
		return command{op: OpPing}, AppendRESPSimple(dst, "PONG"), nil
	case "ECHO":
		if len(args) != 1 {
			return cmd, wrongArity(dst, name), nil
		}
		return cmd, AppendRESPBulk(dst, args[0]), nil
	case "INFO":
		cmd = command{op: OpStats}
		if len(args) >= 1 {
			i := slices.Index(infoSections[:], string(upper(args[0])))
			if i < 0 {
				i = len(infoSections) - 1
			}
			cmd.key = uint64(i)
		}
		return cmd, nil, nil
	case "COMMAND", "CONFIG":
		// redis-cli and benchmark tools probe these on connect; an empty
		// array keeps them happy without pretending to implement them.
		return cmd, append(dst, "*0\r\n"...), nil
	case "SELECT":
		return cmd, AppendRESPSimple(dst, "OK"), nil
	case "QUIT":
		return cmd, AppendRESPSimple(dst, "OK"), io.EOF
	}
	return cmd, AppendRESPError(dst, "ERR unknown command '"+string(name)+"'"), nil
}

func (r *respReader) appendReply(dst []byte, op uint8, _ uint64, status uint8, val uint64) []byte {
	switch status {
	case StBusy:
		return AppendRESPError(dst, "BUSY ring full; retry")
	case StCapacity:
		return AppendRESPError(dst, "OOM node budget exhausted")
	case StClosed:
		return AppendRESPError(dst, "ERR server is draining")
	}
	switch op {
	case OpStats:
		return AppendRESPBulk(dst, r.s.respInfo(nil, infoSections[val]))
	case OpGet:
		if status != StOK {
			return AppendRESPNil(dst)
		}
		var v [respMaxValue]byte
		return AppendRESPBulk(dst, appendUnpacked(v[:0], val))
	case OpPut, opSetEX:
		return AppendRESPSimple(dst, "OK")
	case OpCAS:
		switch status {
		case StOK:
			return AppendRESPInt(dst, 1)
		case StCASMismatch:
			return AppendRESPInt(dst, 0)
		}
		return AppendRESPNil(dst)
	}
	return AppendRESPInt(dst, int64(val)) // keys hit (DEL, EXISTS, EXPIRE) or seconds (TTL)
}

// respInfo renders a redis-style INFO document. section narrows the
// reply to one section (one of infoSections); empty means all.
//
// The Stats and Latency sections are rendered by reflecting over the
// same Snapshot / CmdLatency structs the STATS op and /stats.json
// serialize, via their JSON field names — INFO cannot drift from the
// binary surfaces because there is no second field list to forget to
// update (TestInfoStatsParity pins this).
func (s *Server) respInfo(b []byte, section string) []byte {
	want := func(name string) bool { return section == "" || section == name }
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
