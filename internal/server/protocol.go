// Package server is a pipelined TCP front end for the OA key-value map:
// the piece that turns the library into a service. Any number of
// connections, over two wire formats, multiplex onto one long-lived SMR
// session per keyspace shard (DESIGN.md §7).
//
// # Wire protocol
//
// Length-prefixed binary frames, little-endian, symmetric in both
// directions:
//
//	frame   := len:u32 | id:u64 | code:u8 | body
//	len     counts the bytes after the length field (id+code+body)
//	id      correlates a response to its request (echoed verbatim);
//	        server-initiated frames (GOAWAY) carry id 0
//	code    request opcode or response status
//	body    op-specific u64 words (see below) or, for STATS, JSON
//
// Requests:
//
//	GET   key            → OK val | NOT_FOUND
//	PUT   key val        → OK prev (NOT_FOUND when no previous value)
//	DEL   key            → OK val | NOT_FOUND
//	CAS   key old new    → OK | CAS_MISMATCH cur | NOT_FOUND
//	PING                 → OK
//	STATS                → OK json
//
// Responses may also carry BUSY (the connection's executor ring stayed
// full past RingWait — back off and retry; a connection past MaxConns
// gets one BUSY frame with id 0 and is closed), CLOSED (server draining),
// CAPACITY (node budget exhausted) or BAD_REQUEST. Clients pipeline
// freely: a connection's requests execute in the order it sent them,
// whatever keys they name, and responses are written in request order.
//
// # Graceful drain
//
// On Shutdown the server stops accepting, pushes a GOAWAY frame to every
// connection, and keeps serving. A conforming client stops issuing new
// requests when it sees GOAWAY, awaits its outstanding responses, and
// closes; the server exits the connection only when the client closes
// (or DrainTimeout forces it), after every request it read was answered,
// so a cooperative drain drops zero in-flight requests.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/oaerr"
)

// Request opcodes.
const (
	OpGet    = 1
	OpPut    = 2
	OpDel    = 3
	OpCAS    = 4
	OpPing   = 5
	OpStats  = 6
	OpGoAway = 7 // server→client only
)

// Response status codes.
const (
	StOK          = 0
	StNotFound    = 1
	StCASMismatch = 2
	StBusy        = 3
	StClosed      = 4
	StCapacity    = 5
	StBadRequest  = 6
	StGoAway      = 7
	StFrameTooBig = 8
)

// argWords returns how many u64 argument words each opcode carries.
func argWords(op byte) (int, bool) {
	switch op {
	case OpGet, OpDel:
		return 1, true
	case OpPut:
		return 2, true
	case OpCAS:
		return 3, true
	case OpPing, OpStats:
		return 0, true
	default:
		return 0, false
	}
}

// frameOverhead is id+code. maxResponseFrame bounds what a client will
// buffer for one response (it must fit the STATS JSON body, which is well
// under a page); maxRequestFrame bounds what the server will buffer for
// one request — the largest legitimate request is CAS at 9+24 bytes, so
// anything past a small page is a corrupt or hostile length prefix, and
// the server must reply with a typed error rather than trust the prefix
// and attempt the allocation it names.
const (
	frameOverhead    = 9
	maxResponseFrame = 1 << 16
	maxRequestFrame  = 1 << 12
)

// ErrFrameTooLarge reports a frame whose length prefix exceeds the
// reader's limit. The stream past the prefix cannot be trusted, so the
// connection is cut after the typed FRAME_TOO_BIG response. It is the
// shared oaerr sentinel, so errors.Is matches across the package oamem
// surface, this package, and client libraries.
var ErrFrameTooLarge = oaerr.ErrFrameTooLarge

// AppendFrame appends one wire frame to b. Exported so the zero-alloc
// proofs and encode benchmarks exercise the exact production path.
func AppendFrame(b []byte, id uint64, code byte, body ...uint64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(frameOverhead+8*len(body)))
	b = binary.LittleEndian.AppendUint64(b, id)
	b = append(b, code)
	for _, w := range body {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// appendBytesFrame appends a frame with a raw byte body (STATS JSON).
func appendBytesFrame(b []byte, id uint64, code byte, body []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(frameOverhead+len(body)))
	b = binary.LittleEndian.AppendUint64(b, id)
	b = append(b, code)
	return append(b, body...)
}

// frame is a decoded wire frame; Body aliases the read buffer and is only
// valid until the next read on the same reader.
type frame struct {
	ID   uint64
	Code byte
	Body []byte
}

// word returns the i-th u64 of the body.
func (f *frame) word(i int) uint64 {
	return binary.LittleEndian.Uint64(f.Body[8*i:])
}

// frameBufSize lets one read(2) fetch a whole pipeline burst (1,560
// GETs): the syscall is paid per burst, not twice per frame.
const frameBufSize = 32 << 10

// frameReader decodes frames in place from one fixed buffer, touching
// the stream only when the buffer holds no complete frame. max bounds
// the length prefix it will honor: a prefix past it fails with an error
// wrapping ErrFrameTooLarge, and nothing is ever sized from a prefix.
type frameReader struct {
	r   io.Reader
	buf []byte
	r0  int // buf[r0:w] is received and not yet decoded
	w   int
	max uint32
}

func newFrameReader(r io.Reader, limit uint32) *frameReader {
	return &frameReader{r: r, buf: make([]byte, max(frameBufSize, 4+int(limit))), max: limit}
}

// read decodes the next frame. io.EOF (clean close between frames) passes
// through untouched so callers can distinguish it from a truncated frame.
func (fr *frameReader) read() (frame, error) {
	need := 4
	for {
		if have := fr.w - fr.r0; have >= need {
			n := binary.LittleEndian.Uint32(fr.buf[fr.r0:])
			if n > fr.max {
				return frame{}, fmt.Errorf("server: frame length %d over the %d-byte limit: %w",
					n, fr.max, ErrFrameTooLarge)
			}
			if n < frameOverhead {
				return frame{}, fmt.Errorf("server: bad frame length %d", n)
			}
			if need = 4 + int(n); have >= need {
				b := fr.buf[fr.r0+4 : fr.r0+need]
				fr.r0 += need
				return frame{ID: binary.LittleEndian.Uint64(b), Code: b[8], Body: b[9:]}, nil
			}
		}
		if fr.r0 > 0 { // slide the partial frame down: the tail always has room for one frame
			fr.w = copy(fr.buf, fr.buf[fr.r0:fr.w])
			fr.r0 = 0
		}
		n, err := fr.r.Read(fr.buf[fr.w:])
		fr.w += n
		if n == 0 && err != nil {
			if err == io.EOF && fr.w > 0 {
				err = io.ErrUnexpectedEOF
			}
			return frame{}, err
		}
	}
}

// binCodec is the binary protocol's codec: frames in, frames out.
type binCodec struct {
	fr      *frameReader
	s       *Server          // STATS documents
	scratch [slotInline]byte // the reply next hands back
}

func (b *binCodec) next() (cmd command, reply []byte, err error) {
	f, err := b.fr.read()
	if err != nil {
		// A length prefix past the limit gets FRAME_TOO_BIG before the cut:
		// the stream past a hostile prefix cannot be resynchronized.
		if errors.Is(err, ErrFrameTooLarge) {
			return command{bad: true}, AppendFrame(b.scratch[:0], 0, StFrameTooBig), err
		}
		return cmd, nil, err // EOF: client closed; anything else: cut the pipeline
	}
	nargs, known := argWords(f.Code)
	switch {
	case !known || f.Code == OpGoAway || len(f.Body) != 8*nargs:
		return command{bad: true}, AppendFrame(b.scratch[:0], f.ID, StBadRequest), nil
	case f.Code == OpPing:
		return command{op: OpPing}, AppendFrame(b.scratch[:0], f.ID, StOK), nil
	case f.Code == OpStats:
		return command{op: OpStats, id: f.ID}, nil, nil
	}
	var w [3]uint64
	for i := 0; i < nargs; i++ {
		w[i] = f.word(i)
	}
	return command{op: f.Code, id: f.ID, key: w[0], a1: w[1], a2: w[2]}, nil, nil
}

func (b *binCodec) appendReply(dst []byte, op uint8, id uint64, status uint8, val uint64) []byte {
	switch {
	case op == OpStats:
		return appendBytesFrame(dst, id, StOK, b.s.statsBody())
	case status == StOK && op != OpCAS, status == StNotFound && op == OpPut:
		return AppendFrame(dst, id, status, val) // GET/DEL: the value; PUT: the previous one (0 when none)
	}
	return AppendFrame(dst, id, status)
}
