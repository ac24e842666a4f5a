package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// chunkReader delivers data in reads of the given sizes (the last size
// repeats), counting the reads, then io.EOF.
type chunkReader struct {
	data  []byte
	sizes []int
	reads int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.sizes[min(r.reads, len(r.sizes)-1)]
	r.reads++
	n = copy(p, r.data[:min(n, len(r.data))])
	r.data = r.data[n:]
	return n, nil
}

// testFrames is a stream of valid frames of every request shape plus a
// STATS-sized body, with the frames it should decode to.
func testFrames(n int) (stream []byte, want []frame) {
	for i := 0; i < n; i++ {
		id := uint64(i + 1)
		var b []byte
		switch i % 5 {
		case 0:
			b = AppendFrame(nil, id, OpGet, id*3)
		case 1:
			b = AppendFrame(nil, id, OpPut, id, id*7)
		case 2:
			b = AppendFrame(nil, id, OpCAS, id, id+1, id+2)
		case 3:
			b = AppendFrame(nil, id, OpPing)
		case 4:
			b = appendBytesFrame(nil, id, StOK, bytes.Repeat([]byte{byte(i)}, 300+i%50))
		}
		want = append(want, frame{ID: id, Code: b[12], Body: b[13:]})
		stream = append(stream, b...)
	}
	return stream, want
}

// readAll decodes until EOF and checks the frames against want.
func readAll(t *testing.T, fr *frameReader, want []frame, ctx string) {
	t.Helper()
	for i, w := range want {
		f, err := fr.read()
		if err != nil {
			t.Fatalf("%s: frame %d: %v", ctx, i, err)
		}
		if f.ID != w.ID || f.Code != w.Code || !bytes.Equal(f.Body, w.Body) {
			t.Fatalf("%s: frame %d = id %d code %d body %d B, want id %d code %d body %d B",
				ctx, i, f.ID, f.Code, len(f.Body), w.ID, w.Code, len(w.Body))
		}
	}
	if _, err := fr.read(); err != io.EOF {
		t.Fatalf("%s: after the last frame: %v, want io.EOF", ctx, err)
	}
}

// TestFrameReaderSplitEverywhere delivers one stream split in two at
// every byte offset, then a byte at a time: a frame cut anywhere —
// inside the length prefix, the id, the body — resumes on the next read.
func TestFrameReaderSplitEverywhere(t *testing.T) {
	stream, want := testFrames(12)
	for k := 1; k < len(stream); k++ {
		r := &chunkReader{data: stream, sizes: []int{k, len(stream)}}
		readAll(t, newFrameReader(r, maxRequestFrame), want, "split")
	}
	readAll(t, newFrameReader(iotest.OneByteReader(bytes.NewReader(stream)), maxRequestFrame), want, "one byte at a time")
}

// TestFrameReaderRefillAndStraddle streams several buffers' worth of
// frames through reads that fill the buffer to its end, so frames
// straddle the buffer end at ever-changing offsets and the partial tail
// is carried across each refill; and with reads of awkward sizes.
func TestFrameReaderRefillAndStraddle(t *testing.T) {
	stream, want := testFrames(4000) // ~370 KiB through a 32 KiB buffer
	for _, sizes := range [][]int{{1 << 20}, {frameBufSize}, {frameBufSize - 1}, {4093}, {7, 1 << 20, 3, 33, 1 << 20}} {
		r := &chunkReader{data: stream, sizes: sizes}
		readAll(t, newFrameReader(r, maxRequestFrame), want, "refill")
		if sizes[0] == 1<<20 {
			if maxReads := len(stream)/(frameBufSize-maxRequestFrame) + 2; r.reads > maxReads {
				t.Fatalf("%d reads for %d bytes through a %d-byte buffer (want <= %d)", r.reads, len(stream), frameBufSize, maxReads)
			}
		}
	}
}

// TestFrameReaderOneReadPerBurst is the tentpole's syscall claim at the
// reader: a pipeline burst that arrived in one read is decoded without
// touching the stream again — the next touch is the burst's end, where
// the server's burstReader hands the staged requests off.
func TestFrameReaderOneReadPerBurst(t *testing.T) {
	var burst []byte
	const n = 64
	for i := uint64(0); i < n; i++ {
		burst = AppendFrame(burst, i+1, OpPut, i, i)
	}
	r := &chunkReader{data: append(burst, burst...), sizes: []int{len(burst)}}
	fr := newFrameReader(r, maxRequestFrame)
	for round := 1; round <= 2; round++ {
		for i := 0; i < n; i++ {
			if _, err := fr.read(); err != nil {
				t.Fatal(err)
			}
			if r.reads != round {
				t.Fatalf("burst %d: read %d touched the stream at frame %d of %d", round, r.reads, i+1, n)
			}
		}
		if r.reads != round {
			t.Fatalf("%d reads after %d bursts of %d frames, want one per burst", r.reads, round, n)
		}
	}
}

// TestFrameReaderHostilePrefix: a 4 GiB length prefix is refused with
// the typed error on sight — before the body, and without sizing
// anything from it (the error value is the only allocation).
func TestFrameReaderHostilePrefix(t *testing.T) {
	hostile := append(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF), make([]byte, 64)...)
	fr := newFrameReader(bytes.NewReader(hostile), maxRequestFrame)
	size := len(fr.buf)
	if _, err := fr.read(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read = %v, want ErrFrameTooLarge", err)
	}
	if _, err := fr.read(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("second read = %v: a bad prefix must keep failing, not send the caller back to the socket", err)
	}
	if len(fr.buf) != size || size != frameBufSize {
		t.Fatalf("buffer is %d bytes after a hostile prefix, was %d (want the fixed %d)", len(fr.buf), size, frameBufSize)
	}
	// A valid frame first, so the prefix check runs on a warm reader too.
	ok := AppendFrame(nil, 9, OpGet, 1)
	fr = newFrameReader(bytes.NewReader(append(ok, hostile...)), maxRequestFrame)
	if f, err := fr.read(); err != nil || f.ID != 9 {
		t.Fatalf("frame before the hostile prefix: %+v, %v", f, err)
	}
	if _, err := fr.read(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read = %v, want ErrFrameTooLarge", err)
	}
	short := binary.LittleEndian.AppendUint32(nil, frameOverhead-1)
	if _, err := newFrameReader(bytes.NewReader(short), maxRequestFrame).read(); err == nil || errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("undersized length prefix: %v, want a plain framing error", err)
	}
}

// TestFrameReaderEOF separates a clean close from a truncated frame:
// io.EOF only between frames, io.ErrUnexpectedEOF at every cut inside
// one.
func TestFrameReaderEOF(t *testing.T) {
	one := AppendFrame(nil, 1, OpCAS, 1, 2, 3)
	if _, err := newFrameReader(bytes.NewReader(nil), maxRequestFrame).read(); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	for cut := 1; cut < len(one); cut++ {
		fr := newFrameReader(bytes.NewReader(append(append([]byte(nil), one...), one[:cut]...)), maxRequestFrame)
		if _, err := fr.read(); err != nil {
			t.Fatalf("cut %d: whole frame: %v", cut, err)
		}
		if _, err := fr.read(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// FuzzFrameReader feeds arbitrary bytes in arbitrary read sizes: the
// reader must not panic, must fail exactly where a length prefix is out
// of range or the stream ends, must never return a body that reaches
// past its frame's declared length, and what it decodes must re-encode
// to exactly the bytes it consumed.
func FuzzFrameReader(f *testing.F) {
	stream, _ := testFrames(7)
	f.Add(stream, uint16(5))
	f.Add(stream[:len(stream)-3], uint16(1))
	f.Add(append(AppendFrame(nil, 1, OpGet, 2), 0xFF, 0xFF, 0xFF, 0xFF, 1), uint16(64))
	f.Add([]byte{8, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		fr := newFrameReader(&chunkReader{data: data, sizes: []int{int(chunk%4099) + 1}}, maxRequestFrame)
		var consumed []byte
		for {
			fm, err := fr.read()
			if err != nil {
				rest := data[len(consumed):]
				switch {
				case errors.Is(err, ErrFrameTooLarge):
					if len(rest) < 4 || binary.LittleEndian.Uint32(rest) <= maxRequestFrame {
						t.Fatalf("ErrFrameTooLarge at offset %d without an oversized prefix", len(consumed))
					}
				case err == io.EOF:
					if len(rest) != 0 {
						t.Fatalf("clean EOF with %d undecoded bytes", len(rest))
					}
				case err == io.ErrUnexpectedEOF:
					if len(rest) == 0 || (len(rest) >= 4 && len(rest) >= 4+int(binary.LittleEndian.Uint32(rest))) {
						t.Fatalf("unexpected EOF at offset %d with a whole frame left", len(consumed))
					}
				default: // undersized prefix
					if len(rest) < 4 || binary.LittleEndian.Uint32(rest) >= frameOverhead {
						t.Fatalf("framing error %q at offset %d with a valid prefix", err, len(consumed))
					}
				}
				return
			}
			if len(fm.Body) > maxRequestFrame-frameOverhead {
				t.Fatalf("body of %d bytes past the frame limit", len(fm.Body))
			}
			consumed = appendBytesFrame(consumed, fm.ID, fm.Code, fm.Body)
			if !bytes.Equal(consumed, data[:len(consumed)]) {
				t.Fatalf("decoded frames re-encode to something other than the first %d bytes consumed", len(consumed))
			}
		}
	})
}
