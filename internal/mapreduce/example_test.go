package mapreduce_test

import (
	"fmt"

	"astra/internal/mapreduce"
	"astra/internal/workload"
)

// Reproduce a column of the paper's Table I: 10 input objects with 2
// objects per mapper and per reducer yields 5 mappers and a 3-step
// reducing cascade of 3, 2, 1 reducers.
func ExampleOrchestrate() {
	o, err := mapreduce.Orchestrate(10, 2, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println("mappers:", o.Mappers())
	for p := 0; p < o.NumSteps(); p++ {
		fmt.Printf("step %d: %d reducer(s)\n", p+1, o.Step(p).Count())
	}
	// Output:
	// mappers: 5
	// step 1: 3 reducer(s)
	// step 2: 2 reducer(s)
	// step 3: 1 reducer(s)
}

// Sort stops after one range-partitioned step (the paper's Table III
// shows 7 reducers in 1 step for exactly this shape).
func ExampleOrchestrateFor() {
	o, err := mapreduce.OrchestrateFor(workload.Sort, 200, 4, 8)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d mappers -> %d reducers in %d step(s)\n",
		o.Mappers(), o.Reducers(), o.NumSteps())
	// Output:
	// 50 mappers -> 7 reducers in 1 step(s)
}

// The concrete WordCount application: real tokenizing and merging.
func ExampleWordCountApp() {
	app := mapreduce.WordCountApp{}
	a, _ := app.Map([][]byte{[]byte("to be or not to be")})
	b, _ := app.Map([][]byte{[]byte("be quick")})
	merged, _ := app.Reduce([][]byte{a, b})
	fmt.Print(string(merged))
	// Output:
	// be	3
	// not	1
	// or	1
	// quick	1
	// to	2
}
