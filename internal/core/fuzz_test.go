package core

import (
	"bytes"
	"testing"

	"bepi/internal/gen"
)

// FuzzReadEngine checks the index deserializer never panics on corrupt
// bytes and that any engine it accepts can answer a query.
func FuzzReadEngine(f *testing.F) {
	g := gen.RMAT(gen.DefaultRMAT(6, 4, 3))
	e, err := Preprocess(g, Options{})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	f.Add([]byte{})
	corrupted := append([]byte(nil), valid...)
	corrupted[30] ^= 0x7F
	f.Add(corrupted)
	corrupted2 := append([]byte(nil), valid...)
	corrupted2[len(corrupted2)-9] ^= 0x7F
	f.Add(corrupted2)
	_, corrupt := corruptIndexes(f)
	for _, raw := range corrupt {
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := ReadEngine(bytes.NewReader(data))
		if err != nil {
			return
		}
		if eng.N() < 0 {
			t.Fatal("negative n accepted")
		}
		if eng.N() == 0 {
			return
		}
		// An accepted engine must at least answer without panicking;
		// numeric garbage values may legitimately fail to converge.
		_, _, _ = eng.Query(0)
	})
}
