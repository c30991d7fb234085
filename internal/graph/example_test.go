package graph_test

import (
	"context"
	"fmt"

	"astra/internal/graph"
)

// The classic two-route tradeoff: the fast path exceeds the budget, so
// the constrained search takes the cheap one.
func ExampleGraph_ConstrainedShortestPathCtx() {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 10) // fast, expensive
	g.AddEdge(1, 3, 1, 10)
	g.AddEdge(0, 2, 5, 1) // slow, cheap
	g.AddEdge(2, 3, 5, 1)

	unconstrained, _ := g.ShortestPath(0, 3)
	fmt.Println("fastest:", unconstrained.Nodes, "weight", unconstrained.W, "side", unconstrained.Side)

	constrained, _ := g.ConstrainedShortestPathCtx(context.Background(), 0, 3, 5)
	fmt.Println("budget 5:", constrained.Nodes, "weight", constrained.W, "side", constrained.Side)
	// Output:
	// fastest: [0 1 3] weight 2 side 20
	// budget 5: [0 2 3] weight 10 side 2
}

// Algorithm 1 (the paper's heuristic) on the same instance.
func ExampleGraph_Algorithm1Ctx() {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 10)
	g.AddEdge(1, 3, 1, 10)
	g.AddEdge(0, 2, 5, 1)
	g.AddEdge(2, 3, 5, 1)
	p, err := g.Algorithm1Ctx(context.Background(), 0, 3, 5)
	if err != nil {
		panic(err)
	}
	fmt.Println(p.Nodes)
	// Output:
	// [0 2 3]
}
