// Package binio is the one array codec of the index file format. Every
// array in a saved index (sparse.CSR, lu.BlockLU, core.Engine) is a run of
// little-endian 64-bit words; this package moves such runs between slices
// and a stream a chunk at a time, through a pooled buffer and a tight
// PutUint64/Uint64 loop, so that neither direction makes a call, an
// allocation or an error check per word.
package binio

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"sync"
)

// chunkBytes is the size of the pooled conversion buffer: large enough that
// a 4 MB array is 64 writes, small enough to pool.
const chunkBytes = 64 << 10

var chunks = sync.Pool{New: func() any { return new([chunkBytes]byte) }}

// Writer buffers words into one pooled chunk and hands full chunks to the
// underlying writer. The first write error sticks: later calls do nothing
// and Close reports it, so callers check once.
type Writer struct {
	w     io.Writer
	buf   *[chunkBytes]byte
	fill  int   // bytes of buf not yet handed to w
	total int64 // bytes handed to w
	err   error
}

// NewWriter returns a Writer on w. Close it to flush and release its chunk.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: chunks.Get().(*[chunkBytes]byte)}
}

func (w *Writer) flush() {
	if w.err == nil && w.fill > 0 {
		n, err := w.w.Write(w.buf[:w.fill])
		w.total += int64(n)
		w.err = err
	}
	w.fill = 0
}

// room returns the unfilled tail of the chunk, at least need bytes long.
func (w *Writer) room(need int) []byte {
	if chunkBytes-w.fill < need {
		w.flush()
	}
	return w.buf[w.fill:]
}

// U32 writes one 32-bit word (the format's magic numbers).
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.room(4), v)
	w.fill += 4
}

// U64 writes one 64-bit word.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.room(8), v)
	w.fill += 8
}

// Int writes one integer as a 64-bit word.
func (w *Writer) Int(v int) { w.U64(uint64(v)) }

// F64 writes one float64 as its bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Close flushes what is buffered, releases the chunk and returns the bytes
// written to the underlying writer with the first error met. The Writer
// must not be used afterwards.
func (w *Writer) Close() (int64, error) {
	w.flush()
	chunks.Put(w.buf)
	w.buf = nil
	return w.total, w.err
}

// WriteInts writes every element of s as a 64-bit word (sign-extended for
// the signed types), whatever the in-memory width: a CSR32's uint32 columns
// produce the same bytes as the widened CSR's.
func WriteInts[T int | int32 | int64 | uint32](w *Writer, s []T) {
	for len(s) > 0 {
		b := w.room(8)
		k := min(len(s), len(b)/8)
		for i, v := range s[:k] {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
		w.fill += 8 * k
		s = s[k:]
	}
}

// WriteFloats writes every element of s as a float64 bit pattern.
func WriteFloats(w *Writer, s []float64) {
	for len(s) > 0 {
		b := w.room(8)
		k := min(len(s), len(b)/8)
		for i, v := range s[:k] {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		w.fill += 8 * k
		s = s[k:]
	}
}

// Reader reads words and arrays with no read-ahead: it consumes exactly the
// bytes asked for, so formats can be concatenated in one stream. It knows
// how many bytes the source still holds when the source can say (a
// bytes.Reader or bytes.Buffer, a file), and uses that to allocate each
// array at its declared length — or to refuse, before allocating, a length
// the input cannot back.
type Reader struct {
	r    io.Reader
	left int64 // bytes the source still holds; -1 when it cannot say
}

// NewReader returns a Reader on r; handed a *Reader it returns it, so
// nested decoders share one view of the remaining input.
func NewReader(r io.Reader) *Reader {
	if br, ok := r.(*Reader); ok {
		return br
	}
	return &Reader{r: r, left: remaining(r)}
}

func remaining(r io.Reader) int64 {
	switch s := r.(type) {
	case interface{ Len() int }:
		return int64(s.Len())
	case io.Seeker:
		cur, err := s.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		end, err := s.Seek(0, io.SeekEnd)
		if _, back := s.Seek(cur, io.SeekStart); err != nil || back != nil {
			return -1
		}
		return end - cur
	}
	return -1
}

// Read implements io.Reader, keeping the remaining-bytes count current.
func (r *Reader) Read(b []byte) (int, error) {
	n, err := r.r.Read(b)
	if r.left >= 0 {
		r.left -= int64(n)
	}
	return n, err
}

// Full fills b; input that ends first is io.ErrUnexpectedEOF.
func (r *Reader) Full(b []byte) error {
	_, err := io.ReadFull(r, b)
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// growEntries bounds how far an array read runs ahead of the input when the
// source cannot say how much it holds: a corrupt length then fails at the
// end of the stream instead of attempting one giant allocation.
const growEntries = 1 << 16

// sized returns an empty slice for n declared entries: exactly sized when
// the remaining input is known to back them, refused when it is known not
// to, and otherwise capped so that the slice grows with the input.
func sized[T any](r *Reader, n int) ([]T, error) {
	if n < 0 || (r.left >= 0 && int64(n) > r.left/8) {
		return nil, io.ErrUnexpectedEOF
	}
	if r.left < 0 {
		n = min(n, growEntries)
	}
	return make([]T, 0, n), nil
}

// extend lengthens *s by k entries and returns the new tail.
func extend[T any](s *[]T, k int) []T {
	n := len(*s)
	if cap(*s)-n < k {
		*s = append(*s, make([]T, k)...)
	} else {
		*s = (*s)[:n+k]
	}
	return (*s)[n:]
}

// each reads n words a chunk at a time and hands decode each chunk's bytes.
func (r *Reader) each(n int, decode func(b []byte)) error {
	buf := chunks.Get().(*[chunkBytes]byte)
	defer chunks.Put(buf)
	for n > 0 {
		k := min(n, chunkBytes/8)
		if err := r.Full(buf[:8*k]); err != nil {
			return err
		}
		decode(buf[:8*k])
		n -= k
	}
	return nil
}

// Ints reads n words as ints.
func (r *Reader) Ints(n int) ([]int, error) {
	out, err := sized[int](r, n)
	if err != nil {
		return nil, err
	}
	err = r.each(n, func(b []byte) {
		for i, dst := 0, extend(&out, len(b)/8); i < len(dst); i++ {
			dst[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
		}
	})
	return out, err
}

// Floats reads n words as float64 bit patterns.
func (r *Reader) Floats(n int) ([]float64, error) {
	out, err := sized[float64](r, n)
	if err != nil {
		return nil, err
	}
	err = r.each(n, func(b []byte) {
		for i, dst := 0, extend(&out, len(b)/8); i < len(dst); i++ {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	})
	return out, err
}
