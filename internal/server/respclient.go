package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// RESPValue is one decoded RESP2 reply.
type RESPValue struct {
	Type  byte   // '+', '-', ':', '$', '*'
	Str   []byte // simple string, error message or bulk body (copied)
	Int   int64  // integer replies
	Nil   bool   // $-1 / *-1
	Array []RESPValue
}

// IsError reports an -ERR/-BUSY/-OOM style reply.
func (v RESPValue) IsError() bool { return v.Type == '-' }

// RESPClient is a minimal pipelined RESP2 client for the tests: Send
// queues commands, Flush pushes them, Recv reads one reply in order. Do
// round-trips a single command. Not safe for concurrent use; pipeline
// depth is the caller's Send/Recv discipline.
type RESPClient struct {
	nc net.Conn
	bw *bufio.Writer
	br *bufio.Reader
}

// DialRESP connects a RESP client.
func DialRESP(addr string) (*RESPClient, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewRESPClient(nc), nil
}

// NewRESPClient wraps an established connection.
func NewRESPClient(nc net.Conn) *RESPClient {
	return &RESPClient{
		nc: nc,
		bw: bufio.NewWriterSize(nc, 32<<10),
		br: bufio.NewReaderSize(nc, 32<<10),
	}
}

// Send queues one command as an array of bulk strings.
func (c *RESPClient) Send(args ...string) error {
	b := c.bw
	b.WriteByte('*')
	b.WriteString(strconv.Itoa(len(args)))
	b.WriteString("\r\n")
	for _, a := range args {
		b.WriteByte('$')
		b.WriteString(strconv.Itoa(len(a)))
		b.WriteString("\r\n")
		b.WriteString(a)
		b.WriteString("\r\n")
	}
	return nil
}

// Flush pushes queued commands to the socket.
func (c *RESPClient) Flush() error { return c.bw.Flush() }

// Recv reads the next reply (flushing queued commands first).
func (c *RESPClient) Recv() (RESPValue, error) {
	if err := c.bw.Flush(); err != nil {
		return RESPValue{}, err
	}
	return c.readValue()
}

// Do round-trips one command.
func (c *RESPClient) Do(args ...string) (RESPValue, error) {
	if err := c.Send(args...); err != nil {
		return RESPValue{}, err
	}
	return c.Recv()
}

// Close closes the connection.
func (c *RESPClient) Close() error { return c.nc.Close() }

func (c *RESPClient) readLine() ([]byte, error) {
	line, err := c.br.ReadString('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("resp client: line without CRLF: %q", line)
	}
	return []byte(line[:len(line)-2]), nil
}

func (c *RESPClient) readValue() (RESPValue, error) {
	t, err := c.br.ReadByte()
	if err != nil {
		return RESPValue{}, err
	}
	line, err := c.readLine()
	if err != nil {
		return RESPValue{}, err
	}
	v := RESPValue{Type: t}
	switch t {
	case '+', '-':
		v.Str = line
	case ':':
		v.Int, err = strconv.ParseInt(string(line), 10, 64)
		if err != nil {
			return RESPValue{}, fmt.Errorf("resp client: bad integer %q", line)
		}
	case '$':
		n, err := strconv.Atoi(string(line))
		if err != nil {
			return RESPValue{}, fmt.Errorf("resp client: bad bulk length %q", line)
		}
		if n < 0 {
			v.Nil = true
			return v, nil
		}
		body := make([]byte, n+2)
		if _, err := io.ReadFull(c.br, body); err != nil {
			return RESPValue{}, err
		}
		v.Str = body[:n]
	case '*':
		n, err := strconv.Atoi(string(line))
		if err != nil {
			return RESPValue{}, fmt.Errorf("resp client: bad array length %q", line)
		}
		if n < 0 {
			v.Nil = true
			return v, nil
		}
		for i := 0; i < n; i++ {
			el, err := c.readValue()
			if err != nil {
				return RESPValue{}, err
			}
			v.Array = append(v.Array, el)
		}
	default:
		return RESPValue{}, errors.New("resp client: unknown reply type " + strconv.QuoteRune(rune(t)))
	}
	return v, nil
}
