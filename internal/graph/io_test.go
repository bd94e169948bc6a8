package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	g := New(4, 0)
	g.AddEdge(0, 1, 1.5)
	g.AddEdge(1, 2, 0.25)
	g.AddEdge(2, 3, 3.0)

	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != 4 || back.NumEdges() != 3 {
		t.Fatalf("round trip size %v", back)
	}
	for i := range g.All() {
		if g.Edge(i) != back.Edge(i) {
			t.Fatalf("edge %d: %v vs %v", i, g.Edge(i), back.Edge(i))
		}
	}
}

func TestReadCommentsAndBlank(t *testing.T) {
	in := "# header comment\n\n3 2\n# edge block\n0 1 1.0\n\n1 2 2.0\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || g.Edge(1).W != 2 {
		t.Fatalf("parsed %v", g)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"bad header":      "x y\n",
		"short header":    "3\n",
		"negative header": "-1 0\n",
		"missing edges":   "3 2\n0 1 1.0\n",
		"bad endpoint":    "3 1\na 1 1.0\n",
		"bad weight":      "3 1\n0 1 w\n",
		"range endpoint":  "3 1\n0 9 1.0\n",
		"self loop":       "3 1\n1 1 1.0\n",
		"negative weight": "3 1\n0 1 -2\n",
		"infinite weight": "3 1\n0 1 Inf\n",
		"huge node count": "2147483648 0\n",
		"huge edge count": "3 2147483648\n",
		"two-field edge":  "3 1\n0 1\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}
