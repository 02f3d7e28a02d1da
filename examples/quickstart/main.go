// Quickstart: build a small weighted graph, decompose it with k-path
// separators, and answer (1+ε)-approximate distance queries.
package main

import (
	"fmt"
	"log"

	"pathsep"
)

func main() {
	// A small road-like graph: two "towns" of a few intersections
	// connected by a highway.
	b := pathsep.NewBuilder(8)
	// Town A: vertices 0-3 in a square.
	b.AddEdge(0, 1, 1.0)
	b.AddEdge(1, 2, 1.0)
	b.AddEdge(2, 3, 1.0)
	b.AddEdge(3, 0, 1.0)
	// Town B: vertices 4-7 in a square.
	b.AddEdge(4, 5, 1.0)
	b.AddEdge(5, 6, 1.0)
	b.AddEdge(6, 7, 1.0)
	b.AddEdge(7, 4, 1.0)
	// Highway between the towns.
	b.AddEdge(2, 4, 5.0)
	g := b.Build()

	// Decompose: the Auto strategy picks a separator per recursion node
	// and certifies halving.
	dec, err := pathsep.Decompose(g, pathsep.Options{Certify: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decomposition: %d nodes, depth %d, max %d paths per separator\n",
		len(dec.Nodes), dec.Depth, dec.MaxK)

	// Build a distance oracle with provable (1+0.1) stretch.
	orc, err := pathsep.NewOracle(dec, pathsep.OracleOptions{Epsilon: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("oracle: %d portal entries total, %d-byte image\n",
		orc.NumPortals(), orc.EncodedSize())

	// Queries: 0 -> 6 goes 0-..-2, highway, 4-5-6 (or 4-7-6): 2+5+2 = 9.
	for _, pair := range [][2]int{{0, 6}, {1, 7}, {0, 3}, {5, 5}} {
		d := orc.Query(pair[0], pair[1])
		fmt.Printf("approx distance %d -> %d: %.2f\n", pair[0], pair[1], d)
	}

	// The oracle distributes into per-vertex labels: two labels alone
	// answer a query (Theorem 2's distance labeling scheme).
	l0, l6 := orc.Label(0), orc.Label(6)
	d := pathsep.QueryLabels(&l0, &l6)
	fmt.Printf("label-only query 0 -> 6: %.2f\n", d)
}
