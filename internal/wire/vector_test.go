package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
)

// awkward holds the float64s a text codec is most likely to mangle.
func awkward() []float64 {
	return []float64{
		0, math.Copysign(0, -1), // ±0
		5e-324, -5e-324, 2.2250738585072009e-308, // subnormals
		math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000abc), // NaN payloads, quiet and signalling
		0.1, 1.0 / 3, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func encode(t testing.TB, v *Vector) []byte {
	t.Helper()
	hdr, err := v.header()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeBody(&buf, hdr, v.Scores); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestVectorRoundTripExact: what goes in comes out, bit for bit, for every
// kind of float64, with and without the two strings, and for vectors that
// span several chunk buffers.
func TestVectorRoundTripExact(t *testing.T) {
	long := make([]float64, 2*chunkBytes/8+17)
	for i := range long {
		long[i] = awkward()[i%len(awkward())] * float64(i+1)
	}
	for _, v := range []Vector{
		{Seed: 7, Iterations: 9, Cached: true, Generation: 3, DurationMS: 1.234, IndexHash: "00c0ffee00c0ffee", Replica: "127.0.0.1:9001", Scores: awkward()},
		{Seed: 0, Scores: awkward()},
		{Seed: math.MaxInt, Iterations: math.MaxInt, Generation: math.MaxUint64, DurationMS: math.Inf(1), IndexHash: "h", Scores: long},
		{Replica: "only-a-replica"},
	} {
		b := encode(t, &v)
		if want := fixedLen + 4 + len(v.IndexHash) + len(v.Replica) + 8*len(v.Scores); len(b) != want {
			t.Fatalf("encoded %d bytes, want %d", len(b), want)
		}
		got, err := DecodeVector(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.Scores, v.Scores) {
			t.Fatalf("scores changed in the round trip")
		}
		got.Scores, v.Scores = nil, nil
		if math.Float64bits(got.DurationMS) != math.Float64bits(v.DurationMS) {
			t.Fatalf("duration %v, want %v", got.DurationMS, v.DurationMS)
		}
		got.DurationMS, v.DurationMS = 0, 0
		if !equalHeader(got, v) {
			t.Fatalf("header fields %+v, want %+v", got, v)
		}
	}
}

func equalHeader(a, b Vector) bool {
	return a.Seed == b.Seed && a.Iterations == b.Iterations && a.Cached == b.Cached &&
		a.Generation == b.Generation && a.IndexHash == b.IndexHash && a.Replica == b.Replica
}

// TestDecodeVectorRejects: every way a body can disagree with itself is
// ErrCorruptVector, decided before the score slice exists.
func TestDecodeVectorRejects(t *testing.T) {
	good := encode(t, &Vector{Seed: 1, IndexHash: "abcd", Scores: []float64{1, 2, 3}})
	mutate := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good)) }
	for name, tc := range map[string]struct {
		body []byte
		size int64
	}{
		"bad magic":         {mutate(func(b []byte) []byte { b[0] = 'X'; return b }), int64(len(good))},
		"unknown flag":      {mutate(func(b []byte) []byte { b[4] = 0x82; return b }), int64(len(good))},
		"n too large":       {mutate(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[37:], 1<<40); return b }), int64(len(good))},
		"n too small":       {mutate(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[37:], 2); return b }), int64(len(good))},
		"string past body":  {mutate(func(b []byte) []byte { binary.LittleEndian.PutUint16(b[45:], 60000); return b }), int64(len(good))},
		"seed overflows":    {mutate(func(b []byte) []byte { b[12] = 0xff; return b }), int64(len(good))},
		"truncated":         {good[:len(good)-5], int64(len(good))},
		"shorter than hdr":  {good[:20], 20},
		"ragged tail":       {append(bytes.Clone(good), 0, 0, 0), int64(len(good)) + 3},
		"no content length": {good, -1},
		"empty":             {nil, 0},
	} {
		if _, err := DecodeVector(bytes.NewReader(tc.body), tc.size); !errors.Is(err, ErrCorruptVector) {
			t.Errorf("%s: err = %v, want ErrCorruptVector", name, err)
		}
	}
	// A read failure that is not a short body is passed on, not relabelled.
	boom := errors.New("boom")
	if _, err := DecodeVector(io.MultiReader(bytes.NewReader(good[:50]), failing{boom}), int64(len(good))); !errors.Is(err, boom) || errors.Is(err, ErrCorruptVector) {
		t.Errorf("read failure: err = %v, want the reader's error", err)
	}
}

type failing struct{ err error }

func (f failing) Read([]byte) (int, error) { return 0, f.err }

// TestDecodeVectorAllocationBoundedByInput: a 49-byte body that claims a
// vector of 2⁴⁰ scores costs a header's worth of memory, not 8 TB.
func TestDecodeVectorAllocationBoundedByInput(t *testing.T) {
	b := encode(t, &Vector{})
	binary.LittleEndian.PutUint64(b[37:], 1<<40)
	if grew := allocated(func() {
		if _, err := DecodeVector(bytes.NewReader(b), int64(len(b))); !errors.Is(err, ErrCorruptVector) {
			t.Errorf("err = %v, want ErrCorruptVector", err)
		}
	}); grew > 64<<10 {
		t.Fatalf("rejecting a %d-byte body allocated %d bytes", len(b), grew)
	}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeVector: arbitrary bytes under an arbitrary claimed n either
// are ErrCorruptVector or decode to a vector that encodes back to exactly
// those bytes, and never cost more memory than the input's length allows
// (the slack covers one pooled chunk buffer and the fuzz worker's own
// bookkeeping).
func FuzzDecodeVector(f *testing.F) {
	valid := encode(f, &Vector{Seed: 7, Iterations: 9, Cached: true, Generation: 3, DurationMS: 1.5, IndexHash: "00c0ffee", Replica: "r0", Scores: awkward()})
	f.Add(valid, uint64(len(awkward())))
	f.Add(valid, uint64(1)<<40)
	f.Add(valid, uint64(math.MaxUint64))
	f.Add(valid[:30], uint64(0))
	f.Add(encode(f, &Vector{}), uint64(0))
	f.Add([]byte("BPV1"), uint64(3))
	f.Fuzz(func(t *testing.T, body []byte, n uint64) {
		if len(body) >= fixedLen {
			body = bytes.Clone(body)
			binary.LittleEndian.PutUint64(body[37:], n)
		}
		var v Vector
		var err error
		grew := allocated(func() { v, err = DecodeVector(bytes.NewReader(body), int64(len(body))) })
		if grew > uint64(2*len(body))+256<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(body), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptVector) {
				t.Fatalf("err = %v, want ErrCorruptVector", err)
			}
			return
		}
		if !bytes.Equal(encode(t, &v), body) {
			t.Fatalf("decoded vector does not encode back to its %d input bytes", len(body))
		}
	})
}

// TestWriteVectorHeaders: the HTTP form declares its type and its exact
// length, and refuses — before writing anything — what it cannot encode.
func TestWriteVectorHeaders(t *testing.T) {
	v := Vector{Seed: 2, IndexHash: "abcd", Scores: awkward()}
	rec := httptest.NewRecorder()
	if err := writeVector(rec, &v); err != nil {
		t.Fatal(err)
	}
	resp := rec.Result()
	if !IsVector(resp) || resp.Header.Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("headers %v for a %d-byte body", resp.Header, rec.Body.Len())
	}
	got, err := DecodeVector(resp.Body, int64(rec.Body.Len()))
	if err != nil || !sameBits(got.Scores, v.Scores) {
		t.Fatalf("decode: %v", err)
	}
	// A vector the format cannot carry goes out as the JSON body instead.
	rec = httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, "/query?seed=2&full=true", nil)
	r.Header.Set("Accept", AcceptVector)
	WriteQuery(rec, r, Vector{Replica: string(make([]byte, maxString+1)), Scores: awkward()[:1]}, map[string]int{"seed": 2})
	if ct := rec.Header().Get("Content-Type"); ct != TypeJSON || rec.Body.String() != "{\"seed\":2}\n" {
		t.Fatalf("oversized replica name: Content-Type %q, body %q", ct, rec.Body)
	}
}

// TestNegotiationRule is the negotiation rule itself; the handler tests in
// internal/server and internal/cluster check it end to end.
func TestNegotiationRule(t *testing.T) {
	for _, tc := range []struct {
		accept, url string
		want        bool
	}{
		{"", "/query?seed=1&full=true", false},
		{TypeJSON, "/query?seed=1&full=true", false},
		{TypeVector, "/query?seed=1&full=true", true},
		{AcceptVector, "/query?seed=1&full=true", true},
		{"text/html, Application/X-Bepi-Vector;q=0.9", "/query?seed=1", true},
		{TypeVector + "2", "/query?seed=1&full=true", false},
		{AcceptVector, "/query?seed=1&full=true&debug=1", false},
	} {
		r := httptest.NewRequest(http.MethodGet, tc.url, nil)
		if tc.accept != "" {
			r.Header.Set("Accept", tc.accept)
		}
		if got := wantsVector(r); got != tc.want {
			t.Errorf("Accept %q on %s: wantsVector = %v, want %v", tc.accept, tc.url, got, tc.want)
		}
	}
}
