package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// frameStream concatenates one frame per payload.
func frameStream(payloads ...[]byte) []byte {
	var b []byte
	for _, p := range payloads {
		b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
		b = append(b, p...)
	}
	return b
}

func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i*7)
	}
	return p
}

// FuzzReadFrame feeds ReadFrame an arbitrary byte stream through a small
// bufio.Reader over a one-byte-at-a-time source, reusing one payload buffer
// across calls, and checks every result against a direct decode of the
// stream: each payload byte-exact, truncation reported as
// io.ErrUnexpectedEOF, a clean end as io.EOF, a frame that fits the
// buffer read in place, and a length prefix above MaxFrame rejected before
// the buffer grows.
func FuzzReadFrame(f *testing.F) {
	over := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	f.Add([]byte{})
	f.Add([]byte{0, 0})                         // truncated header
	f.Add([]byte{0, 0, 0, 5})                   // header, no payload
	f.Add([]byte{0, 0, 0, 5, 1, 2})             // short payload
	f.Add(append(over, 1, 2, 3))                // just above MaxFrame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0}) // garbage length
	f.Add(append(frameStream([]byte{9}), over...))
	f.Add(frameStream(pattern(1, 1), pattern(300, 2), nil, pattern(17, 3),
		pattern(1000, 4), pattern(2, 5), pattern(40, 6)))
	f.Add(frameStream(pattern(64, 7), pattern(3, 8), pattern(64, 9)))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(data)), 16)
		var buf []byte
		for rest := data; ; {
			got, err := ReadFrame(br, buf)
			switch {
			case len(rest) == 0:
				if err != io.EOF {
					t.Fatalf("end of stream: err = %v, want io.EOF", err)
				}
				return
			case len(rest) < 4:
				if err != io.ErrUnexpectedEOF {
					t.Fatalf("%d-byte header: err = %v, want io.ErrUnexpectedEOF", len(rest), err)
				}
				return
			}
			n := binary.BigEndian.Uint32(rest)
			switch {
			case n > MaxFrame:
				if !errors.Is(err, errFrameTooLarge) {
					t.Fatalf("length %d: err = %v, want errFrameTooLarge", n, err)
				}
				if cap(got) != cap(buf) {
					t.Fatalf("length %d: buffer grew to %d before the MaxFrame check", n, cap(got))
				}
				return
			case uint32(len(rest)-4) < n:
				if err != io.ErrUnexpectedEOF {
					t.Fatalf("short %d-byte payload: err = %v, want io.ErrUnexpectedEOF", n, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("frame of %d bytes: %v", n, err)
			}
			if want := rest[4 : 4+n]; !bytes.Equal(got, want) {
				t.Fatalf("frame of %d bytes: got %x, want %x", n, got, want)
			}
			if n > 0 && int(n) <= cap(buf) && &got[0] != &buf[:1][0] {
				t.Fatalf("frame of %d bytes reallocated a buffer of capacity %d", n, cap(buf))
			}
			buf = got
			rest = rest[4+n:]
		}
	})
}

// TestReadFrameAllocations: with a warm buffer a frame costs no allocation,
// and an oversize length prefix is rejected before anything is allocated.
func TestReadFrameAllocations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stream []byte
	}{
		{"reused buffer", frameStream(pattern(200, 1))},
		{"above MaxFrame", binary.BigEndian.AppendUint32(nil, MaxFrame+1)},
		{"garbage length", []byte{0xff, 0xff, 0xff, 0xff}},
	} {
		src := bytes.NewReader(tc.stream)
		br := bufio.NewReader(src)
		buf := make([]byte, 0, 256)
		if a := testing.AllocsPerRun(100, func() {
			src.Reset(tc.stream)
			br.Reset(src)
			_, _ = ReadFrame(br, buf)
		}); a != 0 {
			t.Errorf("%s: %v allocations per frame, want 0", tc.name, a)
		}
	}
}

// TestReadKeysShortBodyAllocatesNothing: a body that claims maxOpKeys keys
// but carries only its count is rejected before any key buffer exists.
func TestReadKeysShortBodyAllocatesNothing(t *testing.T) {
	body := AppendU64(nil, maxOpKeys)
	for _, group := range []int{1, 2, 3} {
		allocs := testing.AllocsPerRun(100, func() {
			r := wireReader{b: body}
			if _, ok := readKeys(&r, group); ok {
				t.Fatalf("group %d: short body accepted", group)
			}
		})
		if allocs != 0 {
			t.Errorf("group %d: rejecting a short body allocates %.0f times, want 0", group, allocs)
		}
	}
}

// FuzzReadKeys checks readKeys against a direct decode: it succeeds iff the
// body is exactly a count n ≤ maxOpKeys followed by n×group words, and then
// returns exactly those words.
func FuzzReadKeys(f *testing.F) {
	words := func(ws ...uint64) []byte {
		var b []byte
		for _, w := range ws {
			b = AppendU64(b, w)
		}
		return b
	}
	f.Add([]byte{}, uint8(0))
	f.Add(words(0), uint8(0))
	f.Add(words(2, 7, 9), uint8(0))
	f.Add(words(1, 1, 2, 3), uint8(2))
	f.Add(words(maxOpKeys), uint8(0))
	f.Add(words(maxOpKeys), uint8(2))
	f.Add(words(maxOpKeys+1), uint8(0))
	f.Add(append(words(1, 5), 0), uint8(0))
	f.Add(words(1, 5)[:15], uint8(0))
	f.Fuzz(func(t *testing.T, body []byte, g uint8) {
		group := 1 + int(g%3)
		r := wireReader{b: body}
		vals, ok := readKeys(&r, group)
		want := len(body) >= 8
		var n uint64
		if want {
			n = binary.BigEndian.Uint64(body)
			want = n <= maxOpKeys && uint64(len(body)) == 8+8*n*uint64(group)
		}
		if ok != want {
			t.Fatalf("readKeys(len %d, group %d) ok = %v, want %v", len(body), group, ok, want)
		}
		if !ok {
			return
		}
		if len(vals) != int(n)*group {
			t.Fatalf("got %d values, want %d", len(vals), int(n)*group)
		}
		for i, v := range vals {
			if w := binary.BigEndian.Uint64(body[8+8*i:]); v != w {
				t.Fatalf("value %d = %#x, want %#x", i, v, w)
			}
		}
	})
}
