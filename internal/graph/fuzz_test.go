package graph

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// FuzzReadEdgeList checks the text parser never panics and that accepted
// graphs round-trip through WriteEdgeList — unless the written list, being
// shorter than the input (comments and padding dropped, duplicates
// collapsed), no longer justifies the node count, which ReadEdgeList
// refuses with a *NodeCountError.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n% other\n\n3\t4\n")
	f.Add("a b\n")
	f.Add("-1 0\n")
	f.Add("99999999999999999999 0\n")
	f.Add("0 1 extra fields are fine\n")
	f.Add("# nodes=7 edges=1\n0 1\n")
	f.Add("4294967294 0")

	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		if g.N() < 0 || g.M() < 0 {
			t.Fatal("negative sizes accepted")
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := ReadEdgeList(&buf)
		var nc *NodeCountError
		if errors.As(err, &nc) {
			return
		}
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("round trip changed the graph: n %d vs %d, m %d vs %d", back.N(), g.N(), back.M(), g.M())
		}
	})
}
