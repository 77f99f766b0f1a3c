// Package binio is the one array codec of the index file format. Every
// array in a saved index (sparse.Pattern, lu.ILU, lu.BlockLU, core.Engine)
// is a run of little-endian 16-, 32- or 64-bit words, or a bitmap packed 8
// bits a byte; this package moves such runs between slices and a stream a
// chunk at a time, through a pooled buffer and a tight Put/Uint loop, so
// that neither direction makes a call, an allocation or an error check per
// word.
//
// It also frames sections: length · payload · CRC-32C(payload). The
// checksum is computed over the bytes as they pass through the chunk, so no
// encoder computes one, and while a section is open every array length is
// checked against what is left of the section before anything is allocated.
package binio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
)

// chunkBytes is the size of the pooled conversion buffer: large enough that
// a 4 MB array is 64 writes, small enough to pool.
const chunkBytes = 64 << 10

var chunks = sync.Pool{New: func() any { return new([chunkBytes]byte) }}

// castagnoli is the CRC-32C table, hardware-accelerated where the CPU has
// the instruction.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum is what EndSection returns when a section's bytes do not hash
// to the CRC-32C stored after them.
var ErrChecksum = errors.New("binio: section checksum mismatch")

// Writer buffers words into one pooled chunk and hands full chunks to the
// underlying writer. The first write error sticks: later calls do nothing
// and Close reports it, so callers check once.
type Writer struct {
	w     io.Writer
	buf   *[chunkBytes]byte
	fill  int   // bytes of buf not yet handed to w
	total int64 // bytes handed to w
	err   error

	// n counts the bytes accepted (or, while counting, only counted);
	// nested holds its value at each open nested NewWriter.
	n        int64
	nested   []int64
	counting bool

	// summing: a section is open, and crc covers its bytes up to
	// buf[sumFrom:fill], which are not yet hashed.
	summing bool
	sumFrom int
	crc     uint32
}

// NewWriter returns a Writer on w. Close it to flush and release its chunk.
// Handed a *Writer it returns it, opened once more: an encoder called on a
// Writer writes into the caller's chunk and section, and its Close reports
// the bytes it wrote without flushing.
func NewWriter(w io.Writer) *Writer {
	if bw, ok := w.(*Writer); ok {
		bw.nested = append(bw.nested, bw.n)
		return bw
	}
	return &Writer{w: w, buf: chunks.Get().(*[chunkBytes]byte)}
}

// sum hashes the section bytes buffered since the last call.
func (w *Writer) sum() {
	if w.summing {
		w.crc = crc32.Update(w.crc, castagnoli, w.buf[w.sumFrom:w.fill])
		w.sumFrom = w.fill
	}
}

func (w *Writer) flush() {
	w.sum()
	if w.err == nil && w.fill > 0 {
		n, err := w.w.Write(w.buf[:w.fill])
		w.total += int64(n)
		w.err = err
	}
	w.fill, w.sumFrom = 0, 0
}

// room returns the unfilled tail of the chunk, at least need bytes long.
func (w *Writer) room(need int) []byte {
	if chunkBytes-w.fill < need {
		w.flush()
	}
	return w.buf[w.fill:]
}

// advance records k bytes placed at the head of room's slice.
func (w *Writer) advance(k int) {
	w.fill += k
	w.n += int64(k)
}

// U32 writes one 32-bit word.
func (w *Writer) U32(v uint32) {
	if w.counting {
		w.n += 4
		return
	}
	binary.LittleEndian.PutUint32(w.room(4), v)
	w.advance(4)
}

// U64 writes one 64-bit word.
func (w *Writer) U64(v uint64) {
	if w.counting {
		w.n += 8
		return
	}
	binary.LittleEndian.PutUint64(w.room(8), v)
	w.advance(8)
}

// Int writes one integer as a 64-bit word.
func (w *Writer) Int(v int) { w.U64(uint64(v)) }

// F64 writes one float64 as its bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Write copies b into the stream. It implements io.Writer, so that a Writer
// can be handed to an encoder that takes one.
func (w *Writer) Write(b []byte) (int, error) {
	if w.counting {
		w.n += int64(len(b))
		return len(b), nil
	}
	for rest := b; len(rest) > 0; {
		k := copy(w.room(1), rest)
		w.advance(k)
		rest = rest[k:]
	}
	return len(b), w.err
}

// Section writes one framed section: the length of the payload write
// produces, as a 64-bit word; the payload; and its CRC-32C as a 32-bit word.
// write runs twice, first with the Writer only counting — which reads no
// array — to learn the length, so it must produce the same bytes both
// times; it writes to the Writer it is handed (directly or through
// NewWriter). A payload that comes out at another length than counted is a
// sticky error.
func (w *Writer) Section(write func(io.Writer) (int64, error)) {
	if w.counting { // inside Count: the frame and one counting pass
		w.n += 8
		write(w)
		w.n += 4
		return
	}
	start := w.n
	w.counting = true
	write(w)
	w.counting = false
	length := w.n - start
	w.n = start
	w.U64(uint64(length))
	start = w.n
	w.summing, w.sumFrom, w.crc = true, w.fill, 0
	write(w)
	w.sum()
	w.summing = false
	if got := w.n - start; got != length && w.err == nil {
		w.err = fmt.Errorf("binio: section counted %d bytes, wrote %d", length, got)
	}
	w.U32(w.crc)
}

// Count returns the number of bytes write produces, counted the way Section
// counts a payload: nothing is written and no array is read. A caller that
// knows its sink can grow tells it the length up front with it.
func Count(write func(io.Writer) (int64, error)) int64 {
	w := &Writer{counting: true}
	write(w)
	return w.n
}

// Close ends what the matching NewWriter opened and returns the bytes
// written since, with the first error met. The outermost Close flushes
// what is buffered and releases the chunk; the Writer must not be used
// afterwards.
func (w *Writer) Close() (int64, error) {
	if k := len(w.nested); k > 0 {
		start := w.nested[k-1]
		w.nested = w.nested[:k-1]
		return w.n - start, w.err
	}
	w.flush()
	chunks.Put(w.buf)
	w.buf = nil
	return w.total, w.err
}

// next returns room for as many of entries words of size bytes as the
// chunk holds, and that count; the caller fills them and calls advance.
// Counting, it counts all of them and returns 0.
func (w *Writer) next(entries, size int) ([]byte, int) {
	if w.counting {
		w.n += int64(entries * size)
		return nil, 0
	}
	b := w.room(size)
	return b, min(entries, len(b)/size)
}

// WriteInts writes every element of s as a 64-bit word (sign-extended for
// the signed types), whatever the in-memory width.
func WriteInts[T int | int32 | int64 | uint32 | uint64](w *Writer, s []T) {
	for len(s) > 0 {
		b, k := w.next(len(s), 8)
		if k == 0 {
			return
		}
		for i, v := range s[:k] {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
		w.advance(8 * k)
		s = s[k:]
	}
}

// WriteInts32 writes every element of s as a 32-bit word: its low 32 bits,
// which hold the value for a uint32, an int32, or a wider integer the caller
// knows to fit (Int32s and Uint32s read them back).
func WriteInts32[T int | int32 | int64 | uint32](w *Writer, s []T) {
	for len(s) > 0 {
		b, k := w.next(len(s), 4)
		if k == 0 {
			return
		}
		for i, v := range s[:k] {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
		w.advance(4 * k)
		s = s[k:]
	}
}

// WriteUint16s writes every element of s as a 16-bit word (Uint16s reads
// them back).
func WriteUint16s(w *Writer, s []uint16) {
	for len(s) > 0 {
		b, k := w.next(len(s), 2)
		if k == 0 {
			return
		}
		for i, v := range s[:k] {
			binary.LittleEndian.PutUint16(b[2*i:], v)
		}
		w.advance(2 * k)
		s = s[k:]
	}
}

// WriteFloats writes every element of s as a float64 bit pattern.
func WriteFloats(w *Writer, s []float64) {
	for len(s) > 0 {
		b, k := w.next(len(s), 8)
		if k == 0 {
			return
		}
		for i, v := range s[:k] {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		w.advance(8 * k)
		s = s[k:]
	}
}

// WriteBits writes the first n bits of a bitmap held as 64-bit words — bit
// p at bit p%64 of words[p/64] — as ⌈n/8⌉ bytes, bit p at bit p%8 of byte
// p/8 (Reader.Bits reads them back). The bits past n must be clear.
func WriteBits(w *Writer, words []uint64, n int) {
	nb := (n + 7) / 8
	WriteInts(w, words[:nb/8])
	if tail := nb % 8; tail > 0 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], words[nb/8])
		w.Write(b[:tail])
	}
}

// Stream writes n words of size bytes each that fill encodes: it hands fill
// the chunk's free room, a run of whole words at a time, in order, until n
// are written. Counting, it counts them and does not call fill, so an
// encoder that computes its words — from no array WriteFloats could be
// handed — reads nothing while counting either.
func (w *Writer) Stream(n, size int, fill func(b []byte)) {
	for n > 0 {
		b, k := w.next(n, size)
		if k == 0 {
			return
		}
		fill(b[:size*k])
		w.advance(size * k)
		n -= k
	}
}

// Reader reads words and arrays with no read-ahead: it consumes exactly the
// bytes asked for, so formats can be concatenated in one stream. It knows
// how many bytes the source still holds when the source can say (a
// bytes.Reader or bytes.Buffer, a file), and uses that to allocate each
// array at its declared length — or to refuse, before allocating, a length
// the input cannot back. Inside a section, reads stop at its declared end
// and array lengths are refused against it too, whatever the source.
type Reader struct {
	r    io.Reader
	left int64 // bytes the source still holds; -1 when it cannot say

	inSection bool
	sec       int64  // bytes of the open section not yet read
	crc       uint32 // CRC-32C of the section bytes read so far
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

// errPastSection is a decoder asking for more than its section declared.
var errPastSection = fmt.Errorf("binio: read past the end of the section: %w", io.ErrUnexpectedEOF)

// Read implements io.Reader, keeping the remaining-bytes count and the
// open section's length and checksum current.
func (r *Reader) Read(b []byte) (int, error) {
	if r.inSection {
		if r.sec == 0 && len(b) > 0 {
			return 0, errPastSection
		}
		b = b[:min(int64(len(b)), r.sec)]
	}
	n, err := r.r.Read(b)
	if r.left >= 0 {
		r.left -= int64(n)
	}
	if r.inSection {
		r.crc = crc32.Update(r.crc, castagnoli, b[:n])
		r.sec -= int64(n)
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

// Section opens the next section: it reads the length word and refuses a
// length the input is known not to hold (with the checksum after it).
func (r *Reader) Section() error {
	var b [8]byte
	if err := r.Full(b[:]); err != nil {
		return err
	}
	n := int64(binary.LittleEndian.Uint64(b[:]))
	if n < 0 || (r.left >= 0 && n > r.left-4) {
		return fmt.Errorf("binio: section of %d bytes with %d left: %w", n, r.left, io.ErrUnexpectedEOF)
	}
	r.inSection, r.sec, r.crc = true, n, 0
	return nil
}

// EndSection closes the open section: the decoder must have read all of it,
// and its bytes must hash to the CRC-32C that follows (else ErrChecksum).
func (r *Reader) EndSection() error {
	if r.sec != 0 {
		return fmt.Errorf("binio: %d bytes of the section not read", r.sec)
	}
	r.inSection = false
	var b [4]byte
	if err := r.Full(b[:]); err != nil {
		return err
	}
	if stored := binary.LittleEndian.Uint32(b[:]); stored != r.crc {
		return fmt.Errorf("%w: stored %#08x, computed %#08x", ErrChecksum, stored, r.crc)
	}
	return nil
}

// growEntries bounds how far an array read runs ahead of the input when the
// source cannot say how much it holds: a corrupt length then fails at the
// end of the stream instead of attempting one giant allocation.
const growEntries = 1 << 16

// sized returns an empty slice for n declared entries of size bytes each:
// refused when the open section or the remaining input is known not to back
// them, exactly sized when the input is known to, and otherwise capped so
// that the slice grows with the input.
func sized[T any](r *Reader, n, size int) ([]T, error) {
	if !r.backs(n, size) {
		return nil, io.ErrUnexpectedEOF
	}
	if r.left < 0 {
		n = min(n, growEntries)
	}
	return make([]T, 0, n), nil
}

// backs reports whether n words of size bytes each can follow: n is not
// negative, and neither the open section nor the remaining input is known
// to hold fewer bytes.
func (r *Reader) backs(n, size int) bool {
	return n >= 0 && (r.left < 0 || int64(n) <= r.left/int64(size)) &&
		(!r.inSection || int64(n) <= r.sec/int64(size))
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

// read reads n words of size bytes each into a slice sized for them, a
// chunk at a time, handing decode each chunk's bytes and the slice's tail
// they fill.
func read[T any](r *Reader, n, size int, decode func(dst []T, b []byte)) ([]T, error) {
	out, err := sized[T](r, n, size)
	if err != nil {
		return nil, err
	}
	err = r.Stream(n, size, func(b []byte) { decode(extend(&out, len(b)/size), b) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stream reads n words of size bytes each without allocating for them: it
// hands use the words a chunk at a time, in order. Like the array reads it
// refuses, before reading, a count the open section or the remaining input
// is known not to back.
func (r *Reader) Stream(n, size int, use func(b []byte)) error {
	if !r.backs(n, size) {
		return io.ErrUnexpectedEOF
	}
	buf := chunks.Get().(*[chunkBytes]byte)
	defer chunks.Put(buf)
	for n > 0 {
		k := min(n, chunkBytes/size)
		if err := r.Full(buf[:size*k]); err != nil {
			return err
		}
		use(buf[:size*k])
		n -= k
	}
	return nil
}

// Bits reads a bitmap of n bits written by WriteBits into 64-bit words,
// refusing one with a bit set past n: the padding is zero. The words are
// allocated at their declared count once the input is known to back it, so
// a caller reading from a source that cannot say how much it holds bounds n
// itself.
func (r *Reader) Bits(n int) ([]uint64, error) {
	nb := (n + 7) / 8
	if n < 0 || !r.backs(nb, 1) {
		return nil, io.ErrUnexpectedEOF
	}
	words := make([]uint64, (n+63)/64)
	at := 0
	// Every chunk but the last is a whole number of words: chunkBytes is a
	// multiple of 8.
	err := r.Stream(nb, 1, func(b []byte) {
		for ; len(b) >= 8; b = b[8:] {
			words[at] = binary.LittleEndian.Uint64(b)
			at++
		}
		if len(b) > 0 {
			var last [8]byte
			copy(last[:], b)
			words[at] = binary.LittleEndian.Uint64(last[:])
		}
	})
	if err != nil {
		return nil, err
	}
	if n%64 != 0 && words[len(words)-1]>>(n%64) != 0 {
		return nil, fmt.Errorf("binio: a bitmap of %d bits has a padding bit set", n)
	}
	return words, nil
}

// Ints reads n 64-bit words as ints.
func (r *Reader) Ints(n int) ([]int, error) {
	return read(r, n, 8, func(dst []int, b []byte) {
		for i := range dst {
			dst[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
		}
	})
}

// Int32s reads n 32-bit words as int32s.
func (r *Reader) Int32s(n int) ([]int32, error) {
	return read(r, n, 4, func(dst []int32, b []byte) {
		for i := range dst {
			dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
	})
}

// Uint16s reads n 16-bit words as uint16s.
func (r *Reader) Uint16s(n int) ([]uint16, error) {
	return read(r, n, 2, func(dst []uint16, b []byte) {
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint16(b[2*i:])
		}
	})
}

// Uint32s reads n 32-bit words as uint32s.
func (r *Reader) Uint32s(n int) ([]uint32, error) {
	return read(r, n, 4, func(dst []uint32, b []byte) {
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
	})
}

// Floats reads n 64-bit words as float64 bit patterns.
func (r *Reader) Floats(n int) ([]float64, error) {
	return read(r, n, 8, func(dst []float64, b []byte) {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	})
}
