package wire

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestErrorRoundTrip: what WriteError writes, ReadError reads — the message
// and the Retry-After hint — and a body of another shape comes back raw.
func TestErrorRoundTrip(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusTooManyRequests, 3, "overloaded: queue full")
	resp := rec.Result()
	if ct := resp.Header.Get("Content-Type"); ct != TypeJSON {
		t.Fatalf("Content-Type %q", ct)
	}
	if body := rec.Body.String(); body != "{\"error\":\"overloaded: queue full\"}\n" {
		t.Fatalf("body %q", body)
	}
	if msg, ra := ReadError(resp); msg != "overloaded: queue full" || ra != 3*time.Second {
		t.Fatalf("ReadError = %q, %v", msg, ra)
	}

	rec = httptest.NewRecorder()
	WriteError(rec, http.StatusBadRequest, 0, "bad seed")
	if _, has := rec.Header()["Retry-After"]; has {
		t.Fatal("Retry-After set without a hint")
	}

	resp = &http.Response{StatusCode: 502, Header: http.Header{"Retry-After": {"soon"}},
		Body: io.NopCloser(strings.NewReader("  upstream fell over\n"))}
	if msg, ra := ReadError(resp); msg != "upstream fell over" || ra != 0 {
		t.Fatalf("ReadError on a plain body = %q, %v", msg, ra)
	}
}

func TestReadJSON(t *testing.T) {
	var v struct {
		Seeds []int `json:"seeds"`
	}
	if err := ReadJSON(strings.NewReader(`{"seeds":[1,2]}`), &v); err != nil || len(v.Seeds) != 2 {
		t.Fatalf("ReadJSON: %v %+v", err, v)
	}
	if err := ReadJSON(strings.NewReader(`{"seeds":`), &v); err == nil {
		t.Fatal("truncated JSON decoded")
	}
}
