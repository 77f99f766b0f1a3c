package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// Vector is a /query answer that carries a full score vector, in the form
// both tiers hand to and take from the binary codec. The shard leaves
// Replica empty; the coordinator fills in which shard answered.
type Vector struct {
	Seed       int
	Iterations int
	Cached     bool
	Generation uint64
	DurationMS float64
	IndexHash  string
	Replica    string
	Scores     []float64
}

// The binary vector body, little-endian, fixed order:
//
//	offset  size  field
//	0       4     magic "BPV1"
//	4       1     flags (bit 0: cached; the other bits must be 0)
//	5       8     seed
//	13      8     iterations
//	21      8     generation
//	29      8     duration_ms (float64 bits)
//	37      8     n
//	45      2+a   index_hash (u16 length, then that many bytes)
//	47+a    2+b   replica    (u16 length, then that many bytes)
//	49+a+b  8·n   scores (float64 bits, node order)
//
// Content-Length is always set, so a receiver knows the body's size before
// it reads it and checks 8·n against it before it allocates. Scores travel
// as their bit patterns: the round trip is exact for every float64, NaN
// payloads and signed zeros included.
const (
	vectorMagic = "BPV1"
	flagCached  = 1
	fixedLen    = 45
	maxString   = 1<<16 - 1
	// chunkBytes is the pooled buffer both directions convert through: large
	// enough that a 262 KB vector is eight writes, small enough to pool.
	chunkBytes = 32 << 10
)

// ErrCorruptVector reports a binary vector body that is not one: wrong
// magic, unknown flags, a length that disagrees with the body's size, or a
// body that ends early.
var ErrCorruptVector = errors.New("wire: corrupt vector body")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptVector, fmt.Sprintf(format, args...))
}

var chunks = sync.Pool{New: func() any { return new([chunkBytes]byte) }}

// hasType reports whether a comma-separated media-type list (an Accept or
// Content-Type header value) names typ, ignoring parameters.
func hasType(header, typ string) bool {
	for _, part := range strings.Split(header, ",") {
		if i := strings.IndexByte(part, ';'); i >= 0 {
			part = part[:i]
		}
		if strings.EqualFold(strings.TrimSpace(part), typ) {
			return true
		}
	}
	return false
}

// wantsVector reports whether a /query request may be answered with the
// binary vector body: its Accept header names the type and it did not ask
// for debug=1 (the debug block exists in JSON only).
func wantsVector(r *http.Request) bool {
	return hasType(r.Header.Get("Accept"), TypeVector) && r.URL.Query().Get("debug") != "1"
}

// WriteQuery answers a /query request on either tier, and is where the
// format is negotiated: the binary body when the answer carries a score
// vector and the request allows it, otherwise — rankings, debug=1, no
// Accept, a vector this format cannot carry — body as JSON.
func WriteQuery(w http.ResponseWriter, r *http.Request, v Vector, body any) {
	w.Header().Set("Vary", "Accept")
	if len(v.Scores) > 0 && wantsVector(r) && writeVector(w, &v) == nil {
		return
	}
	WriteJSON(w, http.StatusOK, body)
}

// IsVector reports whether a response body is the binary vector form.
func IsVector(resp *http.Response) bool {
	return hasType(resp.Header.Get("Content-Type"), TypeVector)
}

// header encodes everything before the scores.
func (v *Vector) header() ([]byte, error) {
	if len(v.IndexHash) > maxString || len(v.Replica) > maxString {
		return nil, fmt.Errorf("wire: index hash (%d bytes) or replica name (%d bytes) exceeds %d bytes",
			len(v.IndexHash), len(v.Replica), maxString)
	}
	le := binary.LittleEndian
	b := make([]byte, 0, fixedLen+4+len(v.IndexHash)+len(v.Replica))
	b = append(b, vectorMagic...)
	var flags byte
	if v.Cached {
		flags |= flagCached
	}
	b = append(b, flags)
	b = le.AppendUint64(b, uint64(v.Seed))
	b = le.AppendUint64(b, uint64(v.Iterations))
	b = le.AppendUint64(b, v.Generation)
	b = le.AppendUint64(b, math.Float64bits(v.DurationMS))
	b = le.AppendUint64(b, uint64(len(v.Scores)))
	for _, s := range []string{v.IndexHash, v.Replica} {
		b = le.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	return b, nil
}

// writeBody writes the binary form: the header, then the scores straight
// from the slice through a pooled chunk buffer.
func writeBody(w io.Writer, hdr []byte, scores []float64) error {
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := chunks.Get().(*[chunkBytes]byte)
	defer chunks.Put(buf)
	for s := scores; len(s) > 0; {
		k := min(len(s), chunkBytes/8)
		for i, x := range s[:k] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
		}
		if _, err := w.Write(buf[:8*k]); err != nil {
			return err
		}
		s = s[k:]
	}
	return nil
}

// writeVector writes v as a 200 response in the binary form. A non-nil
// error means v cannot be encoded and nothing was written; failed writes
// (the client is gone) are dropped as WriteJSON drops them.
func writeVector(w http.ResponseWriter, v *Vector) error {
	hdr, err := v.header()
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", TypeVector)
	w.Header().Set("Content-Length", strconv.Itoa(len(hdr)+8*len(v.Scores)))
	w.WriteHeader(http.StatusOK)
	_ = writeBody(w, hdr, v.Scores)
	return nil
}

// readFull fills b from r; a body that ends early is corrupt, any other
// read failure is passed on.
func readFull(r io.Reader, b []byte) error {
	if _, err := io.ReadFull(r, b); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return corrupt("body ends early")
		}
		return fmt.Errorf("wire: reading vector body: %w", err)
	}
	return nil
}

// DecodeVector reads a binary vector body of the given size (the
// response's Content-Length). It checks the magic, the flags and that the
// bytes after the header are exactly 8·n before it allocates the score
// slice, so allocation is bounded by size; anything else is
// ErrCorruptVector.
func DecodeVector(r io.Reader, size int64) (Vector, error) {
	if size < fixedLen+4 {
		return Vector{}, corrupt("body of %d bytes is shorter than a header", size)
	}
	var fixed [fixedLen]byte
	if err := readFull(r, fixed[:]); err != nil {
		return Vector{}, err
	}
	if string(fixed[:4]) != vectorMagic {
		return Vector{}, corrupt("bad magic %q", fixed[:4])
	}
	if fixed[4]&^flagCached != 0 {
		return Vector{}, corrupt("unknown flags %#x", fixed[4])
	}
	le := binary.LittleEndian
	seed, iters, n := le.Uint64(fixed[5:]), le.Uint64(fixed[13:]), le.Uint64(fixed[37:])
	if seed > math.MaxInt || iters > math.MaxInt {
		return Vector{}, corrupt("seed %d or iterations %d out of range", seed, iters)
	}
	v := Vector{
		Seed:       int(seed),
		Iterations: int(iters),
		Cached:     fixed[4]&flagCached != 0,
		Generation: le.Uint64(fixed[21:]),
		DurationMS: math.Float64frombits(le.Uint64(fixed[29:])),
	}
	left := size - fixedLen
	for _, dst := range []*string{&v.IndexHash, &v.Replica} {
		var l [2]byte
		if err := readFull(r, l[:]); err != nil {
			return Vector{}, err
		}
		sl := int(le.Uint16(l[:]))
		if left -= 2 + int64(sl); left < 0 {
			return Vector{}, corrupt("string of %d bytes runs past the body", sl)
		}
		s := make([]byte, sl)
		if err := readFull(r, s); err != nil {
			return Vector{}, err
		}
		*dst = string(s)
	}
	if n != uint64(left)/8 || left%8 != 0 {
		return Vector{}, corrupt("n = %d but %d bytes of scores follow the header", n, left)
	}
	if n == 0 {
		return v, nil
	}
	v.Scores = make([]float64, n)
	buf := chunks.Get().(*[chunkBytes]byte)
	defer chunks.Put(buf)
	for s := v.Scores; len(s) > 0; {
		k := min(len(s), chunkBytes/8)
		if err := readFull(r, buf[:8*k]); err != nil {
			return Vector{}, err
		}
		for i := range s[:k] {
			s[i] = math.Float64frombits(le.Uint64(buf[8*i:]))
		}
		s = s[k:]
	}
	return v, nil
}
