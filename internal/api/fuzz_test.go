package api

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzPlanRequestFingerprint checks the response cache's safety property
// on pairs of request bodies: two requests with one Fingerprint resolve
// to one outcome (both invalid, or the same job, objective and solver),
// so a cached answer is never served to a request that would get a
// different one. Seeds — equivalent sizes, case-folded names, a body
// that sets both sizes next to its valid twin, and others — are checked
// in under testdata/fuzz/FuzzPlanRequestFingerprint.
func FuzzPlanRequestFingerprint(f *testing.F) {
	f.Fuzz(func(t *testing.T, bodyA, bodyB string) {
		a, errA := DecodePlanRequest(strings.NewReader(bodyA))
		b, errB := DecodePlanRequest(strings.NewReader(bodyB))
		if errA != nil || errB != nil || a.Fingerprint() != b.Fingerprint() {
			return
		}
		jobA, objA, solverA, errA := a.Resolve()
		jobB, objB, solverB, errB := b.Resolve()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("key %q: %s resolves with err %v, %s with err %v", a.Fingerprint(), bodyA, errA, bodyB, errB)
		}
		if errA == nil && (!reflect.DeepEqual(jobA, jobB) || objA != objB || solverA != solverB) {
			t.Fatalf("key %q: %s and %s resolve differently:\n%+v %+v %v\n%+v %+v %v",
				a.Fingerprint(), bodyA, bodyB, jobA, objA, solverA, jobB, objB, solverB)
		}
	})
}
