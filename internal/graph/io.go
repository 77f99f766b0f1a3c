package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"bepi/internal/sparse"
)

// ReadEdgeList parses a whitespace-separated "src dst" edge list, one edge
// per line. Lines beginning with '#' or '%' are comments, but for a
// "# nodes=N" field, which WriteEdgeList writes first: the graph then has N
// nodes, isolated trailing ones included, and an edge naming a node past
// N is an error. Without it the graph is sized to the largest id seen plus
// one, so sparse id spaces produce isolated nodes (which are deadends, as
// in the paper's datasets). A node count the input's size cannot justify —
// more than maxNodesBase plus maxNodesPerByte per byte read — is refused
// with a *NodeCountError before the graph is allocated.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	cr := &countingReader{r: r}
	sc := bufio.NewScanner(cr)
	sc.Buffer(nil, 1<<20)
	var edges []Edge
	maxID, header := -1, -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '%' {
			continue
		}
		if line[0] == '#' {
			if n, ok, err := headerNodes(line); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			} else if ok && header < 0 {
				header = n
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %q", lineNo, line)
		}
		src, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src %q: %w", lineNo, fields[0], err)
		}
		dst, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst %q: %w", lineNo, fields[1], err)
		}
		if src < 0 || dst < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id", lineNo)
		}
		maxID = max(maxID, src, dst)
		edges = append(edges, Edge{src, dst})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scanning edge list: %w", err)
	}
	n := maxID + 1
	if header >= 0 {
		if maxID >= header {
			return nil, fmt.Errorf("graph: edge list names node %d, but its header gives nodes=%d", maxID, header)
		}
		n = header
	}
	if bound := maxNodesBase + maxNodesPerByte*cr.n; int64(n) > bound {
		return nil, &NodeCountError{Nodes: n, InputBytes: cr.n, Bound: bound}
	}
	return New(n, edges)
}

// The node counts an edge list of b bytes may give: maxNodesBase plus
// maxNodesPerByte·b. A graph costs 12 bytes a node, so what a short input
// can make the reader allocate stays bounded — about 12 MiB, plus 768 bytes
// per byte read — while sparse id spaces and the isolated nodes a
// "# nodes=N" header declares fit with room to spare: an edge line is at
// least four bytes and names at most two nodes.
const (
	maxNodesBase    = 1 << 20
	maxNodesPerByte = 64
)

// NodeCountError refuses an edge list whose node count — its largest id
// plus one, or its "# nodes=N" header — its size cannot justify.
type NodeCountError struct {
	Nodes      int   // the node count the input gives
	InputBytes int64 // the bytes read
	Bound      int64 // the most nodes that many bytes justify
}

func (e *NodeCountError) Error() string {
	return fmt.Sprintf("graph: edge list of %d bytes gives %d nodes, above the bound of %d (%d plus %d per input byte)",
		e.InputBytes, e.Nodes, e.Bound, maxNodesBase, maxNodesPerByte)
}

// headerNodes reads the node count from a comment line's "nodes=N" field,
// reporting whether it has one.
func headerNodes(line string) (n int, ok bool, err error) {
	for _, f := range strings.Fields(line[1:]) {
		if v, found := strings.CutPrefix(f, "nodes="); found {
			if n, err = strconv.Atoi(v); err != nil || n < 0 {
				return 0, false, fmt.Errorf("bad node count %q", f)
			}
			return n, true, nil
		}
	}
	return 0, false, nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n += int64(k)
	return k, err
}

// ReadMatrixMarketGraph parses a MatrixMarket coordinate stream as a
// directed graph: every stored entry (i, j) becomes the edge i→j (values
// are ignored; symmetric inputs yield both directions). Many public graph
// datasets ship in this format.
func ReadMatrixMarketGraph(r io.Reader) (*Graph, error) {
	m, err := sparse.ReadMatrixMarket(r)
	if err != nil {
		return nil, err
	}
	n := m.Rows()
	if m.Cols() > n {
		n = m.Cols()
	}
	edges := make([]Edge, 0, m.NNZ())
	cols := m.ColIdx()
	for i := 0; i < m.Rows(); i++ {
		s, e := m.RowRange(i)
		for p := s; p < e; p++ {
			edges = append(edges, Edge{Src: i, Dst: cols[p]})
		}
	}
	return New(n, edges)
}

// WriteMatrixMarket writes the graph's adjacency pattern in MatrixMarket
// coordinate format.
func (g *Graph) WriteMatrixMarket(w io.Writer) error {
	return g.Adjacency().WriteMatrixMarket(w)
}

// WriteEdgeList writes the graph as a "src dst" edge list.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.N(), g.M()); err != nil {
		return err
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.OutNeighbors(u) {
			if _, err := fmt.Fprintf(bw, "%d\t%d\n", u, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
