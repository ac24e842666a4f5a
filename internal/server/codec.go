// The command IR and the codec: the one seam between a wire format and
// the request path. Both listeners decode into the same command (an
// opcode, a key and two argument words — a RESP key hashes into the
// binary protocol's uint64 keyspace and a RESP value packs into a word,
// so every data command of either format fits the 32 staged bytes of an
// outbox slot), the read loop stages it, an executor runs it through the
// one op table, and the connection's codec turns (op, id, status, value)
// back into that format's reply. A codec hides a format and nothing
// else: routing, batching, execution and the ledger never look at bytes.
package server

// IR-only opcodes, continuing the wire opcodes of protocol.go: RESP
// commands no binary frame carries. The binary decoder never produces
// them (argWords does not know them).
const (
	opExists = OpGoAway + 1 + iota // EXISTS key → value 1 | 0
	opRemove                       // RESP DEL key → value 1 | 0 (OpDel answers the removed value)
	opSetEX                        // SETEX key a1=seconds a2=value
	opExpire                       // EXPIRE key a1=seconds → value 1 | 0
	opTTL                          // TTL key → value seconds | -1 | -2
	numOps
)

// opClass files an IR opcode under the wire opcode whose request counter,
// latency histogram and span name it shares (SET→put, EXISTS→get: the
// mapping the RESP listener has always counted by).
var opClass = [numOps]uint8{
	OpGet: OpGet, OpPut: OpPut, OpDel: OpDel, OpCAS: OpCAS, OpPing: OpPing, OpStats: OpStats,
	opExists: OpGet, opRemove: OpDel, opSetEX: OpPut, opExpire: OpPut, opTTL: OpGet,
}

// command is one decoded request. A data op (OpGet..OpCAS, opExists..opTTL)
// is staged and executed; OpStats is answered by the reader through
// appendReply, key selecting the document; anything else arrives with its
// reply already encoded, and op then only names the counter it is filed
// under (0: none).
type command struct {
	op          uint8
	bad         bool   // the encoded reply refuses a malformed request
	keys        int    // on the first key of a variadic command: how many keys it has (else 0)
	id          uint64 // binary correlation id, echoed in the reply
	key, a1, a2 uint64
}

// codec is one connection's wire format.
type codec interface {
	// next decodes the next command off the connection. A reply comes back
	// with every command the reader answers itself — protocol ops, arity
	// and protocol errors — and aliases codec storage only until the next
	// call. A reply together with an error is the last word on a stream
	// that cannot continue (QUIT, an unparseable prefix). A variadic
	// command comes back one key per call.
	next() (cmd command, reply []byte, err error)
	// appendReply appends the reply to op — which answered status and
	// val — to dst. It is called from executors too: it must not touch
	// decode state.
	appendReply(dst []byte, op uint8, id uint64, status uint8, val uint64) []byte
}
