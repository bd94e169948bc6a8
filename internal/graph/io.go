package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The text interchange format is a minimal weighted edge list:
//
//	# comment lines start with '#'
//	<numNodes> <numEdges>
//	<u> <v> <w>
//	...
//
// Nodes are 0-based. It is deliberately close to the SuiteSparse/Matrix
// Market coordinate format so converted datasets drop in easily.

// Write serializes g to w in the text edge-list format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	for _, e := range g.All() {
		if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a graph in the text edge-list format.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	nextFields := func() ([]string, error) {
		for sc.Scan() {
			line++
			s := strings.TrimSpace(sc.Text())
			if s == "" || strings.HasPrefix(s, "#") {
				continue
			}
			return strings.Fields(s), nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}

	head, err := nextFields()
	if err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	if len(head) != 2 {
		return nil, fmt.Errorf("graph: line %d: header needs 2 fields, got %d", line, len(head))
	}
	n, err := strconv.Atoi(head[0])
	if err != nil {
		return nil, fmt.Errorf("graph: line %d: bad node count %q", line, head[0])
	}
	m, err := strconv.Atoi(head[1])
	if err != nil {
		return nil, fmt.Errorf("graph: line %d: bad edge count %q", line, head[1])
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: line %d: negative dimensions %d %d", line, n, m)
	}
	if n > math.MaxInt32 || m > math.MaxInt32 {
		return nil, fmt.Errorf("graph: line %d: dimensions %d %d exceed the limit of %d", line, n, m, math.MaxInt32)
	}
	// The edge count is unverified until the edges are read, so it sizes
	// no allocation.
	g := New(n, 0)
	for i := 0; i < m; i++ {
		f, err := nextFields()
		if err != nil {
			return nil, fmt.Errorf("graph: edge %d of %d: %w", i, m, err)
		}
		if len(f) != 3 {
			return nil, fmt.Errorf("graph: line %d: edge needs 3 fields, got %d", line, len(f))
		}
		u, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad endpoint %q", line, f[0])
		}
		v, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad endpoint %q", line, f[1])
		}
		w, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad weight %q", line, f[2])
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: line %d: endpoint out of range", line)
		}
		if u == v {
			return nil, fmt.Errorf("graph: line %d: self-loop rejected", line)
		}
		if !(w > 0) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("graph: line %d: weight %v not positive finite", line, w)
		}
		g.AddEdge(u, v, w)
	}
	return g, nil
}
