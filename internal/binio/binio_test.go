package binio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"sync"
	"testing"
)

// onlyReader hides every method but Read, as a pipe or a network body
// would: the Reader cannot learn how much input is left.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(b []byte) (int, error) { return o.r.Read(b) }

func encode(t testing.TB, ints []int, floats []float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(0xfeedface)
	w.Int(len(ints))
	w.F64(math.Pi)
	WriteInts(w, ints)
	WriteFloats(w, floats)
	n, err := w.Close()
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("Close = %d, %v; wrote %d", n, err, buf.Len())
	}
	return buf.Bytes()
}

// TestRoundTrip crosses several chunk boundaries in both directions, from a
// source that reports its length and from one that does not, and checks
// that negative ints, NaN payloads and signed zeros survive.
func TestRoundTrip(t *testing.T) {
	ints := make([]int, 3*chunkBytes/8+5)
	floats := make([]float64, 2*chunkBytes/8+1)
	for i := range ints {
		ints[i] = i*7919 - 1<<40
	}
	for i := range floats {
		floats[i] = float64(i) / 3
	}
	floats[0], floats[1] = math.Copysign(0, -1), math.Float64frombits(0x7ff8000000abcdef)
	raw := encode(t, ints, floats)
	if want := 4 + 16 + 8*(len(ints)+len(floats)); len(raw) != want {
		t.Fatalf("encoded %d bytes, want %d", len(raw), want)
	}
	for name, src := range map[string]io.Reader{"sized": bytes.NewReader(raw), "stream": onlyReader{bytes.NewReader(raw)}} {
		r := NewReader(src)
		var head [20]byte
		if err := r.Full(head[:]); err != nil {
			t.Fatal(err)
		}
		gotI, err := r.Ints(len(ints))
		if err != nil || !reflect.DeepEqual(gotI, ints) {
			t.Fatalf("%s: ints differ (err %v)", name, err)
		}
		gotF, err := r.Floats(len(floats))
		if err != nil {
			t.Fatal(err)
		}
		for i := range floats {
			if math.Float64bits(gotF[i]) != math.Float64bits(floats[i]) {
				t.Fatalf("%s: float %d = %x, want %x", name, i, math.Float64bits(gotF[i]), math.Float64bits(floats[i]))
			}
		}
		if name == "sized" && (cap(gotI) != len(gotI) || cap(gotF) != len(gotF) || r.left != 0) {
			t.Fatalf("sized source: cap %d/%d cap %d/%d left %d", cap(gotI), len(gotI), cap(gotF), len(gotF), r.left)
		}
		if _, err := r.Ints(1); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: reading past the end: %v", name, err)
		}
	}
}

// TestNarrowTypesWriteWideWords: every index width produces the bytes of
// the widened slice.
func TestNarrowTypesWriteWideWords(t *testing.T) {
	want := encode(t, []int{0, 5, 1 << 31, -1}, []float64{1.5, -2})
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(0xfeedface)
	w.Int(4)
	w.F64(math.Pi)
	WriteInts(w, []uint32{0, 5})
	WriteInts(w, []int64{1 << 31})
	WriteInts(w, []int32{-1})
	WriteFloats(w, []float64{1.5, -2})
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("narrow slices encode differently from their widened values")
	}
}

type failAfter struct{ n int }

func (f *failAfter) Write(b []byte) (int, error) {
	if f.n -= len(b); f.n < 0 {
		return 0, errors.New("disk full")
	}
	return len(b), nil
}

// TestWriterErrorSticks: the first failed write is what Close reports, and
// later writes are not attempted.
func TestWriterErrorSticks(t *testing.T) {
	sink := &failAfter{n: chunkBytes}
	w := NewWriter(sink)
	WriteInts(w, make([]int, 4*chunkBytes/8))
	n, err := w.Close()
	if err == nil || err.Error() != "disk full" || n != chunkBytes {
		t.Fatalf("Close = %d, %v", n, err)
	}
	if sink.n > -chunkBytes || sink.n < -2*chunkBytes {
		t.Fatalf("writer kept writing after the error (sink at %d)", sink.n)
	}
}

// TestUnbackedLengthRefusedOrBounded: a declared length the input cannot
// back is refused outright when the source reports its size, and otherwise
// fails at the end of the stream having grown no further than the input.
func TestUnbackedLengthRefusedOrBounded(t *testing.T) {
	raw := make([]byte, 8*1000)
	if _, err := NewReader(bytes.NewReader(raw)).Ints(1 << 50); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("sized source: %v", err)
	}
	if _, err := NewReader(bytes.NewReader(raw)).Floats(-1); err == nil {
		t.Fatal("negative length accepted")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewReader(onlyReader{bytes.NewReader(raw)}).Ints(1 << 50); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("stream source: %v", err)
		}
	})
	if allocs > 6 {
		t.Fatalf("an unbacked length on a stream took %.0f allocations", allocs)
	}
}

// TestNestedReadersShareTheCount: a decoder handed a *Reader keeps using
// it, so the remaining-bytes count stays right across nested formats, also
// for a seekable source positioned mid-file.
func TestNestedReadersShareTheCount(t *testing.T) {
	r := NewReader(bytes.NewReader(make([]byte, 64)))
	if NewReader(r) != r {
		t.Fatal("NewReader wrapped a *Reader again")
	}
	if _, err := NewReader(r).Ints(3); err != nil || r.left != 40 {
		t.Fatalf("left = %d after 24 of 64 bytes (err %v)", r.left, err)
	}
	type seeker struct{ io.ReadSeeker } // hides Len, keeps Seek, as *os.File
	s := seeker{bytes.NewReader(make([]byte, 64))}
	if _, err := s.Seek(16, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if sr := NewReader(s); sr.left != 48 {
		t.Fatalf("seekable source at offset 16 of 64: left = %d", sr.left)
	} else if v, err := sr.Ints(6); err != nil || len(v) != 6 {
		t.Fatalf("reading after the size probe: %v", err)
	}
}

// TestPoolSharedAcrossGoroutines: writers and readers on many goroutines
// share the chunk pool without mixing their bytes.
func TestPoolSharedAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ints := make([]int, chunkBytes/8+g)
			for i := range ints {
				ints[i] = g<<32 | i
			}
			for rep := 0; rep < 20; rep++ {
				var buf bytes.Buffer
				w := NewWriter(&buf)
				WriteInts(w, ints)
				if _, err := w.Close(); err != nil {
					t.Error(err)
					return
				}
				got, err := NewReader(&buf).Ints(len(ints))
				if err != nil || !reflect.DeepEqual(got, ints) {
					t.Errorf("goroutine %d: round trip differs (err %v)", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// encodeSections writes two sections: 32-bit runs of every accepted type
// through a nested encoder, crossing chunk boundaries, then one word.
func encodeSections(t testing.TB, u []uint32, f []float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := writeSections(u, f)(&buf)
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("Close = %d, %v; wrote %d", n, err, buf.Len())
	}
	return buf.Bytes()
}

// writeSections is encodeSections' encoder.
func writeSections(u []uint32, f []float64) func(io.Writer) (int64, error) {
	return func(out io.Writer) (int64, error) {
		w := NewWriter(out)
		w.U32(0xfeedface)
		w.Section(func(out io.Writer) (int64, error) {
			bw := NewWriter(out)
			bw.Int(len(u))
			WriteInts32(bw, u)
			WriteInts32(bw, []int32{-1, 7})
			WriteInts32(bw, []int{1 << 31})
			WriteFloats(bw, f)
			return bw.Close()
		})
		w.Section(func(out io.Writer) (int64, error) {
			bw := NewWriter(out)
			bw.F64(math.E)
			return bw.Close()
		})
		return w.Close()
	}
}

// TestSaveLoadSectionRoundTrip: a section is its length, its payload and
// the payload's CRC-32C, the length counted without writing — and Count
// counts the whole stream, frames included, to the byte; 32-bit runs come
// back exactly, from a source that reports its length and from one that
// does not.
func TestSaveLoadSectionRoundTrip(t *testing.T) {
	u := make([]uint32, chunkBytes/4+9)
	for i := range u {
		u[i] = uint32(i*2654435761) ^ 0x80000000
	}
	f := make([]float64, chunkBytes/8+3)
	for i := range f {
		f[i] = float64(i) / 7
	}
	raw := encodeSections(t, u, f)
	payload := 8 + 4*(len(u)+3) + 8*len(f)
	if want := 4 + (8 + payload + 4) + (8 + 8 + 4); len(raw) != want {
		t.Fatalf("encoded %d bytes, want %d", len(raw), want)
	}
	if n := Count(writeSections(u, f)); n != int64(len(raw)) {
		t.Fatalf("Count = %d, the stream is %d bytes", n, len(raw))
	}
	if got := binary.LittleEndian.Uint64(raw[4:]); got != uint64(payload) {
		t.Fatalf("section length %d, want %d", got, payload)
	}
	if got, want := binary.LittleEndian.Uint32(raw[12+payload:]), crc32.Checksum(raw[12:12+payload], crc32.MakeTable(crc32.Castagnoli)); got != want {
		t.Fatalf("stored CRC %#x, want CRC-32C %#x", got, want)
	}
	for name, src := range map[string]io.Reader{"sized": bytes.NewReader(raw), "stream": onlyReader{bytes.NewReader(raw)}} {
		r := NewReader(src)
		var word [8]byte
		if err := r.Full(word[:4]); err != nil {
			t.Fatal(err)
		}
		if err := r.Section(); err != nil {
			t.Fatal(err)
		}
		if err := r.Full(word[:]); err != nil {
			t.Fatal(err)
		}
		gotU, err := r.Uint32s(len(u))
		if err != nil || !reflect.DeepEqual(gotU, u) {
			t.Fatalf("%s: uint32 run differs (err %v)", name, err)
		}
		gotI, err := r.Int32s(3)
		if err != nil || !reflect.DeepEqual(gotI, []int32{-1, 7, math.MinInt32}) {
			t.Fatalf("%s: int32 run = %v (err %v)", name, gotI, err)
		}
		gotF, err := r.Floats(len(f))
		if err != nil || !reflect.DeepEqual(gotF, f) {
			t.Fatalf("%s: floats differ (err %v)", name, err)
		}
		if err := r.EndSection(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := r.Section(); err != nil {
			t.Fatal(err)
		}
		if err := r.Full(word[:]); err != nil || math.Float64frombits(binary.LittleEndian.Uint64(word[:])) != math.E {
			t.Fatalf("%s: second section: %v", name, err)
		}
		if err := r.EndSection(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestSaveLoadSectionRefusals: a flipped payload byte fails the checksum; a
// decoder that stops short of its section's end, or reads past it, fails;
// and an array the section cannot hold is refused before it is allocated,
// whether or not the source reports its length.
func TestSaveLoadSectionRefusals(t *testing.T) {
	raw := encodeSections(t, []uint32{1, 2, 3}, []float64{0.5})
	open := func(b []byte) *Reader {
		r := NewReader(onlyReader{bytes.NewReader(b)})
		if err := r.Full(make([]byte, 4)); err != nil {
			t.Fatal(err)
		}
		if err := r.Section(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	flipped := append([]byte(nil), raw...)
	flipped[20] ^= 1
	r := open(flipped)
	if _, err := r.Uint32s(2 + 3 + 3 + 2); err != nil { // the count word, both runs and the float, as 32-bit words
		t.Fatal(err)
	}
	if err := r.EndSection(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped payload byte: %v, want ErrChecksum", err)
	}
	if err := open(raw).EndSection(); err == nil || errors.Is(err, ErrChecksum) {
		t.Fatalf("section left unread: %v", err)
	}
	if _, err := open(raw).Floats(6); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("array longer than the section: %v", err)
	}
	r = open(raw)
	if _, err := r.Floats(5); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Int32s(1); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read past the section: %v", err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := open(raw).Uint32s(1 << 40); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("unbacked length: %v", err)
		}
	})
	if allocs > 6 {
		t.Fatalf("an unbacked length in a section took %.0f allocations", allocs)
	}
	short := NewReader(bytes.NewReader(raw[:20]))
	if err := short.Full(make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if err := short.Section(); err == nil {
		t.Fatal("a section longer than the input opened")
	}
}

// TestUint16RunRoundTrip: a 16-bit run across chunk boundaries is written
// as 2 bytes an element and comes back exactly, from a source that reports
// its length and from one that does not.
func TestUint16RunRoundTrip(t *testing.T) {
	h := make([]uint16, chunkBytes/2+9)
	for i := range h {
		h[i] = uint16(i * 40503)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	WriteUint16s(w, h)
	if n, err := w.Close(); err != nil || n != int64(2*len(h)) || buf.Len() != 2*len(h) {
		t.Fatalf("Close = %d, %v; wrote %d, want %d", n, err, buf.Len(), 2*len(h))
	}
	for name, src := range map[string]io.Reader{"sized": bytes.NewReader(buf.Bytes()), "stream": onlyReader{bytes.NewReader(buf.Bytes())}} {
		got, err := NewReader(src).Uint16s(len(h))
		if err != nil || !reflect.DeepEqual(got, h) {
			t.Fatalf("%s: uint16 run differs (err %v)", name, err)
		}
	}
}

// TestBitsRoundTrip: a bitmap of n bits is written as ⌈n/8⌉ bytes, bit p at
// bit p%8 of byte p/8, and comes back as the same words across chunk
// boundaries — at every length around a byte and a word boundary — from a
// source that reports its length and from one that does not; a set
// padding bit is refused.
func TestBitsRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 8*chunkBytes - 1, 8*chunkBytes + 70} {
		words := make([]uint64, (n+63)/64)
		for p := 0; p < n; p++ {
			if (p*2654435761)>>7&1 != 0 {
				words[p/64] |= 1 << (p % 64)
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		WriteBits(w, words, n)
		if _, err := w.Close(); err != nil || buf.Len() != (n+7)/8 {
			t.Fatalf("n=%d: wrote %d bytes (%v), want %d", n, buf.Len(), err, (n+7)/8)
		}
		if got := Count(func(out io.Writer) (int64, error) {
			w := NewWriter(out)
			WriteBits(w, words, n)
			return w.Close()
		}); got != int64(buf.Len()) {
			t.Fatalf("n=%d: counted %d bytes, wrote %d", n, got, buf.Len())
		}
		raw := buf.Bytes()
		for p := 0; p < n; p++ {
			if raw[p/8]>>(p%8)&1 != byte(words[p/64]>>(p%64)&1) {
				t.Fatalf("n=%d: bit %d not at bit %d of byte %d", n, p, p%8, p/8)
			}
		}
		for name, src := range map[string]io.Reader{"sized": bytes.NewReader(raw), "stream": onlyReader{bytes.NewReader(raw)}} {
			got, err := NewReader(src).Bits(n)
			if err != nil || !reflect.DeepEqual(got, words) {
				t.Fatalf("n=%d %s: bitmap differs (err %v)", n, name, err)
			}
		}
		if n%8 != 0 {
			padded := append([]byte(nil), raw...)
			padded[len(padded)-1] |= 0x80
			if _, err := NewReader(bytes.NewReader(padded)).Bits(n); err == nil {
				t.Fatalf("n=%d: a set padding bit accepted", n)
			}
		}
	}
}

// TestStreamRoundTrip: Writer.Stream hands its encoder whole words that
// fill the stream in order, never while counting; Reader.Stream hands them
// back a chunk at a time, and refuses a count the open section does not
// back before reading any of it.
func TestStreamRoundTrip(t *testing.T) {
	const n = chunkBytes/8*2 + 3
	encode := func(out io.Writer) (int64, error) {
		w := NewWriter(out)
		next := 0
		w.Stream(n, 8, func(b []byte) {
			if len(b)%8 != 0 {
				t.Fatalf("handed %d bytes, not whole words", len(b))
			}
			for o := 0; o < len(b); o += 8 {
				binary.LittleEndian.PutUint64(b[o:], uint64(next)*0x9E3779B97F4A7C15)
				next++
			}
		})
		return w.Close()
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section(encode) // counted first: a fill while counting would shift every word
	if _, err := w.Close(); err != nil || buf.Len() != 8+8*n+4 {
		t.Fatalf("wrote %d bytes (%v), want %d", buf.Len(), err, 8+8*n+4)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if err := r.Section(); err != nil {
		t.Fatal(err)
	}
	if err := r.Stream(n+1, 8, func([]byte) { t.Fatal("read past the section") }); err == nil {
		t.Fatal("a count past the section accepted")
	}
	next := 0
	err := r.Stream(n, 8, func(b []byte) {
		for o := 0; o < len(b); o += 8 {
			if got := binary.LittleEndian.Uint64(b[o:]); got != uint64(next)*0x9E3779B97F4A7C15 {
				t.Fatalf("word %d is %#x", next, got)
			}
			next++
		}
	})
	if err != nil || next != n {
		t.Fatalf("read %d words (%v), want %d", next, err, n)
	}
	if err := r.EndSection(); err != nil {
		t.Fatal(err)
	}
}
