package sparse

import "testing"

// TestStreamBandwidthProbe: the triad probe must report a positive roof and
// cache it — it is quoted on /metrics and in bench tables, so it cannot be
// re-measured per scrape.
func TestStreamBandwidthProbe(t *testing.T) {
	a := StreamBandwidth()
	if a <= 0 {
		t.Fatalf("StreamBandwidth() = %v, want > 0", a)
	}
	if b := StreamBandwidth(); b != a {
		t.Fatalf("StreamBandwidth not cached: %v then %v", a, b)
	}
}
