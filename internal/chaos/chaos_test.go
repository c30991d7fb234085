package chaos

import (
	"errors"
	"strings"
	"testing"
	"time"

	"astra/internal/lambda"
	"astra/internal/objectstore"
	"astra/internal/simtime"
)

func mustEngine(t *testing.T, p *Plan) *Engine {
	t.Helper()
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := ParseBytes([]byte(`{"seed":1,"rules":[{"target":"lambda","effect":"straggle","factr":8}]}`))
	if err == nil || !strings.Contains(err.Error(), "factr") {
		t.Fatalf("want unknown-field error naming the typo, got %v", err)
	}
}

func TestParseAcceptsDurationStrings(t *testing.T) {
	p, err := ParseBytes([]byte(`{"seed":2,"rules":[
		{"target":"lambda","effect":"throttle","from":"10s","for":"1m30s"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rules[0]
	if time.Duration(r.From) != 10*time.Second || time.Duration(r.For) != 90*time.Second {
		t.Fatalf("from/for = %v/%v", time.Duration(r.From), time.Duration(r.For))
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
		want string
	}{
		{"unknown target", Rule{Target: "network", Effect: StoreError}, "unknown target"},
		{"store effect on lambda", Rule{Target: TargetLambda, Effect: StoreError}, "not a lambda effect"},
		{"lambda effect on store", Rule{Target: TargetStore, Effect: Straggle}, "not a store effect"},
		{"store matchers on lambda rule", Rule{Target: TargetLambda, Effect: Straggle, Factor: 2, Bucket: "b"}, "store matchers"},
		{"lambda matchers on store rule", Rule{Target: TargetStore, Effect: StoreError, Phase: "map"}, "lambda matchers"},
		{"unknown phase", Rule{Target: TargetLambda, Effect: ColdStart, Phase: "shuffle"}, "unknown phase"},
		{"unknown op", Rule{Target: TargetStore, Effect: StoreError, Ops: []string{"POST"}}, "unknown op"},
		{"probability out of range", Rule{Target: TargetLambda, Effect: ColdStart, Probability: 1.5}, "probability"},
		{"straggle without factor", Rule{Target: TargetLambda, Effect: Straggle}, "factor > 1"},
		{"factor on non-straggle", Rule{Target: TargetLambda, Effect: ColdStart, Factor: 2}, "only valid for straggle"},
		{"throttle without window", Rule{Target: TargetLambda, Effect: Throttle}, "positive"},
		{"window on non-throttle", Rule{Target: TargetLambda, Effect: ColdStart, For: Duration(time.Second)}, "only valid for throttle"},
		{"negative max_count", Rule{Target: TargetLambda, Effect: ColdStart, MaxCount: -1}, "negative"},
	}
	for _, c := range cases {
		p := &Plan{Rules: []Rule{c.rule}}
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

// TestDrawsAreIdentityKeyed is the determinism core: the same invocation
// identity gets the same decision regardless of how many other draws
// happened first or in what order, so scheduling interleavings cannot
// change the injected fault set.
func TestDrawsAreIdentityKeyed(t *testing.T) {
	plan := func() *Plan {
		return &Plan{Seed: 11, Rules: []Rule{{
			Target: TargetLambda, Effect: Straggle, Factor: 4, Probability: 0.5,
		}}}
	}
	refs := make([]lambda.InvokeRef, 40)
	for i := range refs {
		refs[i] = lambda.InvokeRef{Function: "mapper", Label: "map-" + string(rune('a'+i%26)), Attempt: i / 26}
	}

	e1 := mustEngine(t, plan())
	got1 := make([]bool, len(refs))
	for i, ref := range refs {
		_, got1[i] = e1.InvokeFault(ref, 0)
	}

	// Same plan, reversed consultation order: decisions must match per
	// identity.
	e2 := mustEngine(t, plan())
	got2 := make([]bool, len(refs))
	for i := len(refs) - 1; i >= 0; i-- {
		_, got2[i] = e2.InvokeFault(refs[i], 0)
	}
	for i := range refs {
		if got1[i] != got2[i] {
			t.Fatalf("identity %v: decision depends on call order (%v vs %v)", refs[i], got1[i], got2[i])
		}
	}

	// A different seed must change the pattern (sanity that the seed is
	// actually in the key).
	e3 := mustEngine(t, &Plan{Seed: 12, Rules: plan().Rules})
	same := 0
	for i, ref := range refs {
		if _, hit := e3.InvokeFault(ref, 0); hit == got1[i] {
			same++
		}
	}
	if same == len(refs) {
		t.Fatal("seed change did not alter any decision")
	}
}

func TestMaxCountBoundsFires(t *testing.T) {
	e := mustEngine(t, &Plan{Seed: 1, Rules: []Rule{{
		Name: "once", Target: TargetLambda, Effect: ColdStart, MaxCount: 1,
	}}})
	hits := 0
	for i := 0; i < 5; i++ {
		ref := lambda.InvokeRef{Function: "mapper", Label: "map-0", Attempt: i}
		if f, ok := e.InvokeFault(ref, 0); ok && f.ForceCold {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("rule fired %d times, want 1 (max_count)", hits)
	}
}

func TestStoreRepeatHeals(t *testing.T) {
	e := mustEngine(t, &Plan{Seed: 5, Rules: []Rule{{
		Target: TargetStore, Effect: StoreError, Ops: []string{"GET"}, Repeat: 2,
	}}})
	var errs int
	for i := 0; i < 6; i++ {
		if err := e.OpFault(objectstore.OpGet, "b", "k"); err != nil {
			if !errors.Is(err, ErrStoreFault) {
				t.Fatalf("wrong error type: %v", err)
			}
			errs++
		}
	}
	if errs != 2 {
		t.Fatalf("key faulted %d times, want exactly Repeat=2 then healed", errs)
	}
	// Other ops and keys are unaffected.
	if err := e.OpFault(objectstore.OpPut, "b", "k"); err != nil {
		t.Fatalf("PUT matched a GET-only rule: %v", err)
	}
	if err := e.OpFault(objectstore.OpGet, "b", "other"); err == nil {
		t.Fatal("fresh key should still be afflicted (probability 1 rule)")
	}
}

func TestThrottleWindow(t *testing.T) {
	e := mustEngine(t, &Plan{Seed: 3, Rules: []Rule{{
		Target: TargetLambda, Effect: Throttle,
		From: Duration(10 * time.Second), For: Duration(5 * time.Second),
	}}})
	ref := lambda.InvokeRef{Function: "mapper", Label: "map-0"}
	if e.ThrottleInjected(ref, 9*simtime.Time(time.Second)) {
		t.Fatal("throttled before the window opened")
	}
	if !e.ThrottleInjected(ref, 12*simtime.Time(time.Second)) {
		t.Fatal("not throttled inside the window")
	}
	if e.ThrottleInjected(ref, 15*simtime.Time(time.Second)) {
		t.Fatal("throttled at the window's exclusive end")
	}
}

func TestEffectsCompose(t *testing.T) {
	// A straggle rule and a cold-start rule matching the same attempt
	// compose into one InvokeFault carrying both effects.
	e := mustEngine(t, &Plan{Seed: 9, Rules: []Rule{
		{Target: TargetLambda, Effect: Straggle, Factor: 3},
		{Target: TargetLambda, Effect: ColdStart},
	}})
	f, ok := e.InvokeFault(lambda.InvokeRef{Function: "mapper", Label: "map-1"}, 0)
	if !ok || f.Straggle != 3 || !f.ForceCold {
		t.Fatalf("composed fault = %+v (ok=%v), want straggle 3 + forced cold", f, ok)
	}
}

func TestPhaseMatching(t *testing.T) {
	e := mustEngine(t, &Plan{Seed: 2, Rules: []Rule{{
		Target: TargetLambda, Effect: ColdStart, Phase: "reduce",
	}}})
	if _, ok := e.InvokeFault(lambda.InvokeRef{Function: "f", Label: "map-3"}, 0); ok {
		t.Fatal("reduce rule hit a map label")
	}
	if _, ok := e.InvokeFault(lambda.InvokeRef{Function: "f", Label: "red-0-2"}, 0); !ok {
		t.Fatal("reduce rule missed a red-P-R label")
	}
	if _, ok := e.InvokeFault(lambda.InvokeRef{Function: "f", Label: "coordinator"}, 0); ok {
		t.Fatal("reduce rule hit the coordinator")
	}
}
