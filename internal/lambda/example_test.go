package lambda_test

import (
	"fmt"
	"time"

	"astra/internal/lambda"
	"astra/internal/objectstore"
	"astra/internal/pricing"
	"astra/internal/simtime"
)

// A function at 128 MB runs its compute 8x slower than at the 1024 MB
// reference tier, and the bill reflects the measured (virtual) duration.
func ExamplePlatform_Invoke() {
	sched := simtime.NewScheduler()
	store := objectstore.New(sched, objectstore.Config{
		Bandwidth: 80 << 20,
		Pricing:   pricing.AWS().Store,
	})
	platform := lambda.New(sched, store, lambda.Config{})
	_, err := platform.Register("crunch", 128, func(ctx *lambda.Ctx) ([]byte, error) {
		ctx.Work(1) // one reference-second of compute
		return []byte("done"), nil
	})
	if err != nil {
		panic(err)
	}
	err = sched.Run(func(p *simtime.Proc) {
		resp, err := platform.Invoke(p, "crunch", nil)
		if err != nil {
			panic(err)
		}
		fmt.Println(string(resp))
	})
	if err != nil {
		panic(err)
	}
	rec := platform.Records()[0]
	fmt.Println("ran for", rec.Billed)
	fmt.Println("billed", rec.Cost)
	// Output:
	// done
	// ran for 8s
	// billed $0.000017
}

// Cold starts hit only the first invocation; the warm pool serves the
// second.
func ExamplePlatform_coldStart() {
	sched := simtime.NewScheduler()
	store := objectstore.New(sched, objectstore.Config{
		Bandwidth: 80 << 20,
		Pricing:   pricing.AWS().Store,
	})
	platform := lambda.New(sched, store, lambda.Config{
		ColdStart: 250 * time.Millisecond,
		KeepAlive: 10 * time.Minute,
	})
	_, err := platform.Register("f", 1024, func(ctx *lambda.Ctx) ([]byte, error) { return nil, nil })
	if err != nil {
		panic(err)
	}
	err = sched.Run(func(p *simtime.Proc) {
		platform.Invoke(p, "f", nil)
		platform.Invoke(p, "f", nil)
	})
	if err != nil {
		panic(err)
	}
	for i, r := range platform.Records() {
		fmt.Printf("invocation %d cold=%v\n", i+1, r.Cold)
	}
	// Output:
	// invocation 1 cold=true
	// invocation 2 cold=false
}
