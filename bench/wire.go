package main

import (
	"encoding/binary"
	"fmt"
	"strconv"
)

// The benchmark carries its own encoders and reply readers for both wire
// protocols (see internal/server/protocol.go and resp.go for the
// formats), so a change to the server package's client helpers cannot
// move the numbers.

// Request operations; the numbers are the binary protocol's opcodes.
const (
	opGet   = 1
	opPut   = 2
	opDel   = 3
	opCAS   = 4
	opStats = 6
)

// Reply statuses; the numbers are the binary protocol's, and RESP replies
// are mapped onto them.
const (
	stOK = iota
	stNotFound
	stCASMismatch
	stBusy
	stClosed
	stCapacity
	stBadRequest
)

// codec is one wire protocol: how a request is written and a reply read.
type codec interface {
	name() string
	// appendReq appends one request on key index idx; a1, a2 are the
	// operands (value for put; old, new for cas).
	appendReq(b []byte, id uint64, op int, idx uint32, a1, a2 uint64) []byte
	// parseReply decodes the reply at the head of b. n is the bytes it
	// occupies, 0 when b does not yet hold all of it.
	parseReply(b []byte) (n int, st int, val uint64, hasVal bool, err error)
	// countsWrites reports that a write is answered with an
	// acknowledgement or a count (RESP's +OK and :n), not with the word it
	// replaced (the binary protocol).
	countsWrites() bool
	// value is the word a reply carries for version ver of key idx. It
	// names both, so a word read from a recycled slot — another key's, or
	// this key's past — cannot pass for the current one. Never 0 or 1
	// (the model's "absent" and "unknown").
	value(idx uint32, ver uint64) uint64
}

// binCodec is the length-prefixed binary protocol:
// len:u32 | id:u64 | code:u8 | u64 words, little-endian.
type binCodec struct {
	keyOf func(idx uint32) uint64
	// val overrides the value words, for reading entries another codec
	// wrote; nil means the binary protocol's own.
	val func(idx uint32, ver uint64) uint64
}

func (binCodec) name() string       { return "binary" }
func (binCodec) countsWrites() bool { return false }

// casOldOffset is where a binary CAS request keeps its expected word.
const casOldOffset = 4 + 8 + 1 + 8

func appendBinFrame(b []byte, id uint64, code byte, words ...uint64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(9+8*len(words)))
	b = binary.LittleEndian.AppendUint64(b, id)
	b = append(b, code)
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

func (c binCodec) appendReq(b []byte, id uint64, op int, idx uint32, a1, a2 uint64) []byte {
	key := c.keyOf(idx)
	switch op {
	case opPut:
		return appendBinFrame(b, id, opPut, key, a1)
	case opCAS:
		return appendBinFrame(b, id, opCAS, key, a1, a2)
	}
	return appendBinFrame(b, id, byte(op), key)
}

func (binCodec) parseReply(b []byte) (int, int, uint64, bool, error) {
	if len(b) < 4 {
		return 0, 0, 0, false, nil
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 9 || n > 1<<16 {
		return 0, 0, 0, false, fmt.Errorf("binary reply with frame length %d", n)
	}
	if len(b) < 4+n {
		return 0, 0, 0, false, nil
	}
	st := int(b[12])
	if n >= 17 {
		return 4 + n, st, binary.LittleEndian.Uint64(b[13:]), true, nil
	}
	return 4 + n, st, 0, false, nil
}

func (c binCodec) value(idx uint32, ver uint64) uint64 {
	if c.val != nil {
		return c.val(idx, ver)
	}
	return 1<<63 | uint64(idx)<<36 | ver&(1<<36-1)
}

// respCodec is RESP2. Keys are "key:NNNNNNN" strings; values are the 7
// bytes the server's u64-packed store can hold: 3 of key index, 4 of
// version. A bulk reply is reported as the server packs it
// (len<<56 | bytes little-endian), so the same entry reads the same
// through either listener.
type respCodec struct{}

func (respCodec) name() string       { return "resp" }
func (respCodec) countsWrites() bool { return true }

func respKey(b []byte, idx uint32) []byte {
	b = append(b, "key:"...)
	s := strconv.AppendUint(nil, uint64(idx), 10)
	for i := len(s); i < 7; i++ {
		b = append(b, '0')
	}
	return append(b, s...)
}

func appendBulk(b, arg []byte) []byte {
	b = append(b, '$')
	b = strconv.AppendInt(b, int64(len(arg)), 10)
	b = append(b, '\r', '\n')
	b = append(b, arg...)
	return append(b, '\r', '\n')
}

func (respCodec) appendReq(b []byte, _ uint64, op int, idx uint32, a1, _ uint64) []byte {
	var kb [16]byte
	key := respKey(kb[:0], idx)
	switch op {
	case opGet:
		b = append(b, "*2\r\n$3\r\nGET\r\n"...)
		return appendBulk(b, key)
	case opDel:
		b = append(b, "*2\r\n$3\r\nDEL\r\n"...)
		return appendBulk(b, key)
	case opPut:
		b = append(b, "*3\r\n$3\r\nSET\r\n"...)
		b = appendBulk(b, key)
		var vb [8]byte
		binary.LittleEndian.PutUint64(vb[:], a1)
		return appendBulk(b, vb[:7])
	}
	panic("bench: the RESP workloads use GET, SET and DEL only")
}

func crlf(b []byte) int {
	for i := 1; i < len(b); i++ {
		if b[i] == '\n' && b[i-1] == '\r' {
			return i - 1
		}
	}
	return -1
}

func (respCodec) parseReply(b []byte) (int, int, uint64, bool, error) {
	if len(b) == 0 {
		return 0, 0, 0, false, nil
	}
	e := crlf(b)
	if e < 0 {
		return 0, 0, 0, false, nil
	}
	line, n := b[1:e], e+2
	switch b[0] {
	case '+':
		return n, stOK, 0, false, nil
	case '-':
		switch {
		case len(line) >= 4 && string(line[:4]) == "BUSY":
			return n, stBusy, 0, false, nil
		case len(line) >= 3 && string(line[:3]) == "OOM":
			return n, stCapacity, 0, false, nil
		}
		return n, stBadRequest, 0, false, nil
	case ':':
		v, err := strconv.ParseInt(string(line), 10, 64)
		if err != nil {
			return 0, 0, 0, false, fmt.Errorf("RESP integer %q", line)
		}
		return n, stOK, uint64(v), true, nil
	case '$':
		l, err := strconv.Atoi(string(line))
		if err != nil || l > 7 {
			return 0, 0, 0, false, fmt.Errorf("RESP bulk length %q", line)
		}
		if l < 0 {
			return n, stNotFound, 0, false, nil
		}
		if len(b) < n+l+2 {
			return 0, 0, 0, false, nil
		}
		w := uint64(l) << 56
		for i := 0; i < l; i++ {
			w |= uint64(b[n+i]) << (8 * i)
		}
		return n + l + 2, stOK, w, true, nil
	}
	return 0, 0, 0, false, fmt.Errorf("RESP reply type %q", b[0])
}

func (respCodec) value(idx uint32, ver uint64) uint64 {
	return 7<<56 | (ver&0xFFFFFFFF)<<24 | uint64(idx)&0xFFFFFF
}

// fnv1a is the hash the server applies to RESP keys; through it the
// binary listener can address an entry written over RESP.
func fnv1a(k []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range k {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// reqStream is one connection's requests, encoded before any timing
// starts: the bytes to send, where each request begins, and what it was
// (op | local key index << 3 | version << 27) for the reply checker.
type reqStream struct {
	buf  []byte
	off  []uint32
	meta []uint64
}

func (s *reqStream) len() int { return len(s.meta) }

func (s *reqStream) add(c codec, op int, conn, conns int, local int, ver, a1, a2 uint64) {
	idx := uint32(local*conns + conn)
	s.buf = c.appendReq(s.buf, uint64(len(s.meta))+1, op, idx, a1, a2)
	s.off = append(s.off, uint32(len(s.buf)))
	s.meta = append(s.meta, uint64(op)|uint64(local)<<3|ver<<27)
}

func (s *reqStream) at(i int) (op int, local int, ver uint64) {
	m := s.meta[i]
	return int(m & 7), int(m >> 3 & (1<<24 - 1)), m >> 27
}

// opMix is a traffic mix as shares of get, put and del; the rest is cas.
type opMix struct{ get, put, del float64 }

// streamSpec says how to draw one workload's requests.
type streamSpec struct {
	universe int     // keys over all connections
	theta    float64 // zipfian skew; 0 = uniform
	mix      opMix
	preload  int // hottest-first keys per connection written before timing
}

// genStream draws n requests for connection conn of conns. CAS requests
// need the word they expect, so generation replays the connection's own
// operations on a private model, which is exact because no other
// connection touches its keys.
func genStream(c codec, seed uint64, spec streamSpec, conn, conns, n int) *reqStream {
	per := spec.universe / conns
	r := newRNG(seed, "requests", conn)
	keys := newKeyPicker(newRNG(seed, "keys", conn), per, spec.theta)
	model := make([]uint64, per)
	for _, local := range preloadOrder(seed, spec, conn, conns) {
		model[local] = c.value(uint32(local*conns+conn), 0)
	}
	s := &reqStream{off: make([]uint32, 1, n+1), meta: make([]uint64, 0, n)}
	for i := 0; i < n; i++ {
		local, ver := keys.next(), uint64(i)+1
		val := c.value(uint32(local*conns+conn), ver)
		switch u := r.float(); {
		case u < spec.mix.get:
			s.add(c, opGet, conn, conns, local, ver, 0, 0)
		case u < spec.mix.get+spec.mix.put:
			s.add(c, opPut, conn, conns, local, ver, val, 0)
			model[local] = val
		case u < spec.mix.get+spec.mix.put+spec.mix.del:
			s.add(c, opDel, conn, conns, local, ver, 0, 0)
			model[local] = 0
		default:
			old := model[local]
			if old == 0 {
				old = c.value(uint32(local*conns+conn), 0) // absent: the server answers NOT_FOUND
			} else {
				model[local] = val
			}
			s.add(c, opCAS, conn, conns, local, ver, old, val)
		}
	}
	return s
}

// preloadOrder lists the local key indices a connection writes before
// timing, hottest first.
func preloadOrder(seed uint64, spec streamSpec, conn, conns int) []int {
	per := spec.universe / conns
	keys := newKeyPicker(newRNG(seed, "keys", conn), per, spec.theta)
	order := make([]int, spec.preload)
	for rank := range order {
		if keys.z == nil {
			order[rank] = rank
		} else {
			order[rank] = (rank*scatter + keys.offset) & (per - 1)
		}
	}
	return order
}

// genPreload encodes the writes that load a connection's keys at
// version 0.
func genPreload(c codec, seed uint64, spec streamSpec, conn, conns int) *reqStream {
	order := preloadOrder(seed, spec, conn, conns)
	s := &reqStream{off: make([]uint32, 1, len(order)+1), meta: make([]uint64, 0, len(order))}
	for _, local := range order {
		s.add(c, opPut, conn, conns, local, 0, c.value(uint32(local*conns+conn), 0), 0)
	}
	return s
}
