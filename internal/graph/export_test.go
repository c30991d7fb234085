package graph

// RefShortestPath runs the container/heap reference Dijkstra of
// differential_test.go on a copy of g's edges. It is exported for the
// external tests that search real configuration DAGs: internal/dag imports
// this package, so those tests cannot live inside it.
func RefShortestPath(g *Graph, src, dst int) (Path, bool) {
	r := newRefGraph(g.n)
	for u := 0; u < g.n; u++ {
		for _, e := range g.EdgesFrom(u) {
			r.addEdge(u, e.To, e.W, e.Side)
		}
	}
	return r.shortestPath(src, dst)
}
