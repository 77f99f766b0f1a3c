package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"bepi/internal/wire"
)

// headJSON encodes v the way this package's writeJSON did before the codec
// moved to internal/wire: the reference a default response must still match
// byte for byte.
func headJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWireQueryResponseGolden pins the shard's default body to bytes
// captured from the pre-wire writeJSON for the same QueryResponse values.
func TestWireQueryResponseGolden(t *testing.T) {
	for _, tc := range []struct {
		resp QueryResponse
		want string
	}{
		{QueryResponse{
			Seed: 7, Scores: []float64{0.15, 0, 1e-300, 0.3, 5e-324, math.Copysign(0, -1), 1.0 / 3},
			Iterations: 9, DurationMS: 1.234, Cached: true, Generation: 3, IndexHash: "00c0ffee00c0ffee",
		}, "{\"seed\":7,\"scores\":[0.15,0,1e-300,0.3,5e-324,-0,0.3333333333333333],\"iterations\":9,\"duration_ms\":1.234,\"cached\":true,\"generation\":3,\"index_hash\":\"00c0ffee00c0ffee\"}\n"},
		{QueryResponse{
			Seed: 7, Top: []RankedEntry{{Node: 3, Score: 0.25}, {Node: 11, Score: 1.0 / 3}},
			Iterations: 4, DurationMS: 0.5, EarlyStopped: true, Generation: 1, IndexHash: "00c0ffee00c0ffee",
		}, "{\"seed\":7,\"top\":[{\"node\":3,\"score\":0.25},{\"node\":11,\"score\":0.3333333333333333}],\"iterations\":4,\"duration_ms\":0.5,\"early_stopped\":true,\"generation\":1,\"index_hash\":\"00c0ffee00c0ffee\"}\n"},
	} {
		rec := httptest.NewRecorder()
		wire.WriteJSON(rec, http.StatusOK, tc.resp)
		if got := rec.Body.String(); got != tc.want {
			t.Errorf("body\n%q\nwant\n%q", got, tc.want)
		}
	}
}

// TestWireNegotiationShard is the negotiation matrix over the shard's
// /query handler: binary only when a full vector is going out, the client
// asked for it and debug is off; JSON — byte-identical to the old encoder's
// output for the same response — everywhere else.
func TestWireNegotiationShard(t *testing.T) {
	s, eng := testServer(t)
	defer s.Close()
	want, err := eng.Query(9)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path, accept string
		binary             bool
	}{
		{"no Accept, full", "/query?seed=9&full=true", "", false},
		{"JSON only, full", "/query?seed=9&full=true", wire.TypeJSON, false},
		{"vector, full", "/query?seed=9&full=true", wire.AcceptVector, true},
		{"vector, full, debug", "/query?seed=9&full=true&debug=1", wire.AcceptVector, false},
		{"vector, top-k", "/query?seed=9&topk=5", wire.AcceptVector, false},
		{"no Accept, top-k", "/query?seed=9&topk=5", "", false},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		resp := rec.Result()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Vary") != "Accept" {
			t.Fatalf("%s: status %d, Vary %q", tc.name, resp.StatusCode, resp.Header.Get("Vary"))
		}
		if wire.IsVector(resp) != tc.binary {
			t.Fatalf("%s: Content-Type %q", tc.name, resp.Header.Get("Content-Type"))
		}
		body := rec.Body.Bytes()
		if tc.binary {
			v, err := wire.DecodeVector(bytes.NewReader(body), resp.ContentLength)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if v.Seed != 9 || v.Generation != 1 || v.IndexHash != s.Core().IndexHash() || v.Replica != "" {
				t.Fatalf("%s: header %+v", tc.name, v)
			}
			assertSameBits(t, tc.name, v.Scores, want)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != wire.TypeJSON {
			t.Fatalf("%s: Content-Type %q", tc.name, ct)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(body, headJSON(t, qr)) {
			t.Fatalf("%s: body is not what the old encoder writes for the same response", tc.name)
		}
		if qr.Scores != nil {
			assertSameBits(t, tc.name, qr.Scores, want)
		}
		if (qr.Debug != nil) != (tc.name == "vector, full, debug") {
			t.Fatalf("%s: debug block %v", tc.name, qr.Debug)
		}
	}
}

func assertSameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: score[%d] = %x, want %x", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}
