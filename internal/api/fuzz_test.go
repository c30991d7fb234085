package api

import (
	"reflect"
	"strings"
	"testing"

	"astra/internal/optimizer"
)

// FuzzPlanRequestFingerprint checks the response cache's safety property
// on pairs of request bodies: two requests with one Fingerprint resolve
// to one outcome (both invalid, or the same job, objective and solver),
// so a cached answer is never served to a request that would get a
// different one. Seeds — equivalent sizes, case-folded names, a body
// that sets both sizes next to its valid twin, respelled goals,
// deadlines and solver names, and others — are checked in under
// testdata/fuzz/FuzzPlanRequestFingerprint.
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

// FuzzFrontierRequestFingerprint is FuzzPlanRequestFingerprint for the
// non-streaming frontier's cache key: two frontier bodies with one
// Fingerprint are both invalid, or resolve to the same job and the same
// target size (a size <= 0 asks for optimizer.DefaultFrontierSize).
// Seeds, among them a body that sets both sizes and sizes 0 and 24, are
// checked in under testdata/fuzz/FuzzFrontierRequestFingerprint.
func FuzzFrontierRequestFingerprint(f *testing.F) {
	size := func(r *FrontierRequest) int {
		if r.Size <= 0 {
			return optimizer.DefaultFrontierSize
		}
		return r.Size
	}
	f.Fuzz(func(t *testing.T, bodyA, bodyB string) {
		a, errA := DecodeFrontierRequest(strings.NewReader(bodyA))
		b, errB := DecodeFrontierRequest(strings.NewReader(bodyB))
		if errA != nil || errB != nil || a.Fingerprint() != b.Fingerprint() {
			return
		}
		jobA, errA := a.Resolve()
		jobB, errB := b.Resolve()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("key %q: %s resolves with err %v, %s with err %v", a.Fingerprint(), bodyA, errA, bodyB, errB)
		}
		if errA == nil && (!reflect.DeepEqual(jobA, jobB) || size(a) != size(b)) {
			t.Fatalf("key %q: %s and %s resolve differently:\n%+v size %d\n%+v size %d",
				a.Fingerprint(), bodyA, bodyB, jobA, size(a), jobB, size(b))
		}
	})
}
