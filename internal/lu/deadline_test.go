package lu

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestFactorSparseDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	a := randDiagDominantCSR(rng, 600, 0.05)
	// An already-expired deadline must abort with the deadline error.
	_, err := FactorSparseDeadline(a, 0, time.Now().Add(-time.Second))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", err)
	}
	// A generous deadline must succeed.
	f, err := FactorSparseDeadline(a, 0, time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if f.n != 600 {
		t.Fatal("factorization incomplete")
	}
}
