package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"bepi/internal/gen"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.C != DefaultC || o.Tol != DefaultTol {
		t.Fatalf("defaults: %+v", o)
	}
	if o.Variant != VariantFull {
		t.Fatalf("zero-value variant must be full BePI, got %v", o.Variant)
	}
	if o.HubRatio != 0.2 {
		t.Fatalf("full-variant hub ratio default %v", o.HubRatio)
	}
	if o.MaxIter != 1000 {
		t.Fatalf("MaxIter default %d", o.MaxIter)
	}

	b := Options{Variant: VariantB}.withDefaults()
	if b.HubRatio != 0.001 {
		t.Fatalf("BePI-B hub ratio default %v", b.HubRatio)
	}

	// Out-of-range values are replaced, explicit valid values kept.
	c := Options{C: 1.5, Tol: -1, HubRatio: 0.33, MaxIter: 7}.withDefaults()
	if c.C != DefaultC || c.Tol != DefaultTol || c.HubRatio != 0.33 || c.MaxIter != 7 {
		t.Fatalf("mixed defaults: %+v", c)
	}
	// What withDefaults hands the engine is what ReadEngine accepts back:
	// the values a header is refused for are replaced or capped here.
	for _, o := range []Options{{}, {Variant: VariantB}, {Tol: 3, MaxIter: 1 << 40}, {C: math.NaN(), Tol: math.NaN()}} {
		d := o.withDefaults()
		if err := d.validate(); err != nil {
			t.Errorf("%+v defaults to %+v, which a stored index is refused for: %v", o, d, err)
		}
	}
	if d := (Options{Tol: 3, MaxIter: 1 << 40}).withDefaults(); d.Tol != DefaultTol || d.MaxIter != maxIterLimit {
		t.Fatalf("Tol 3 / MaxIter 2^40 default to %v / %d", d.Tol, d.MaxIter)
	}
}

// TestOptionsFieldCount pins the configuration surface: a new field is a new
// axis every test and benchmark must cover, so adding one is a decision
// taken here, in view.
func TestOptionsFieldCount(t *testing.T) {
	if n := reflect.TypeOf(Options{}).NumField(); n != 8 {
		t.Fatalf("core.Options has %d fields, want 8", n)
	}
}

func TestVariantString(t *testing.T) {
	cases := map[Variant]string{
		VariantFull: "BePI",
		VariantB:    "BePI-B",
		VariantS:    "BePI-S",
		Variant(99): "Variant(99)",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("%d.String() = %q want %q", int(v), v.String(), want)
		}
	}
}

func TestDeadlineHelper(t *testing.T) {
	// A generous deadline must not trigger.
	g := gen.Figure2()
	if _, err := Preprocess(g, Options{Deadline: time.Hour}); err != nil {
		t.Fatalf("hour deadline should pass: %v", err)
	}
}
