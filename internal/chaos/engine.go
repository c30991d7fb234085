package chaos

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"astra/internal/lambda"
	"astra/internal/objectstore"
	"astra/internal/simtime"
)

// ErrStoreFault wraps every store error the engine fabricates.
var ErrStoreFault = errors.New("chaos: injected store fault")

// Engine compiles a Plan into the platform injector interfaces
// (lambda.Injector and objectstore.Injector). It is safe for concurrent
// use, but its decisions never depend on call order: every probabilistic
// draw is a pure function of (seed, rule, invocation identity), so the
// same seeded plan injects the same faults regardless of scheduling
// interleaving. Counters (MaxCount, Repeat) are the only mutable state,
// and within one deterministic simulation they advance identically run to
// run. What was injected is counted where it lands, by the platform
// (lambda.ChaosCounters, objectstore's InjectedFaults and the
// astra_chaos_* series); the engine keeps no tally of its own.
//
// Use a fresh Engine per run: counters carry across runs otherwise.
type Engine struct {
	plan *Plan

	mu       sync.Mutex
	fired    []int          // per-rule total fires (MaxCount bookkeeping)
	keyFails map[string]int // (rule, bucket, key) -> store faults so far (Repeat)
	occ      map[string]uint64
}

// NewEngine validates the plan and builds an engine for one run.
func NewEngine(p *Plan) (*Engine, error) {
	if p == nil {
		p = &Plan{}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		plan:     p,
		fired:    make([]int, len(p.Rules)),
		keyFails: make(map[string]int),
		occ:      make(map[string]uint64),
	}, nil
}

func (e *Engine) ruleName(i int) string {
	if n := e.plan.Rules[i].Name; n != "" {
		return n
	}
	return fmt.Sprintf("rule-%d", i)
}

// splitmix64 finalizes a hash into well-mixed 64 bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw hashes the seed plus an identity (FNV-1a over NUL-joined parts,
// splitmix-finalized) into a uniform 64-bit value. It is the engine's only
// randomness source: no sequential stream, no shared cursor.
func (e *Engine) draw(parts ...string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, s := range parts {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0
		h *= prime64
	}
	return splitmix64(h ^ splitmix64(uint64(e.plan.Seed)))
}

// unit maps a draw to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / float64(1<<53) }

// pass reports whether the rule's probability gate opens for the identity.
func (e *Engine) pass(i int, r *Rule, parts ...string) bool {
	p := r.Probability
	if p == 0 || p >= 1 {
		return true // 0 means "always" (probability unset)
	}
	key := append([]string{strconv.Itoa(i)}, parts...)
	return unit(e.draw(key...)) < p
}

// phaseOf maps the driver's labeling scheme to a rule phase.
func phaseOf(label string) string {
	switch {
	case strings.HasPrefix(label, "map-"):
		return "map"
	case strings.HasPrefix(label, "red-"):
		return "reduce"
	case label == "coordinator":
		return "coordinator"
	}
	return ""
}

// matchLambda reports whether the rule's matchers hit the attempt.
func matchLambda(r *Rule, ref lambda.InvokeRef) bool {
	if r.Function != "" && r.Function != ref.Function {
		return false
	}
	if r.Phase != "" && r.Phase != phaseOf(ref.Label) {
		return false
	}
	if r.Attempt != nil && *r.Attempt != ref.Attempt {
		return false
	}
	return true
}

// InvokeFault implements lambda.Injector: effects from every matching
// non-throttle lambda rule compose into one InvokeFault. Each rule draws
// independently under the attempt's identity.
func (e *Engine) InvokeFault(ref lambda.InvokeRef, now simtime.Time) (lambda.InvokeFault, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out lambda.InvokeFault
	have := false
	att := strconv.Itoa(ref.Attempt)
	for i := range e.plan.Rules {
		r := &e.plan.Rules[i]
		if r.Target != TargetLambda || r.Effect == Throttle || !matchLambda(r, ref) {
			continue
		}
		if r.MaxCount > 0 && e.fired[i] >= r.MaxCount {
			continue
		}
		if !e.pass(i, r, "invoke", ref.Function, ref.Label, att) {
			continue
		}
		rule := e.ruleName(i)
		switch r.Effect {
		case FailBeforeStart:
			if out.FailBeforeStart {
				continue // already rejected; don't double-count
			}
			out.FailBeforeStart = true
			out.Rule, out.Err = rule, r.Error
		case FailMidFlight:
			if out.FailMidFlight {
				continue
			}
			out.FailMidFlight = true
			// Kill at one of the handler's first few platform API calls,
			// drawn from the same identity so it is reproducible.
			out.FailAtCall = 1 + int(e.draw(strconv.Itoa(i), "failat", ref.Function, ref.Label, att)%4)
			if out.Rule == "" {
				out.Rule, out.Err = rule, r.Error
			}
		case Straggle:
			if r.Factor <= out.Straggle {
				continue
			}
			out.Straggle = r.Factor
			if out.Rule == "" {
				out.Rule = rule
			}
		case ColdStart:
			if out.ForceCold {
				continue
			}
			out.ForceCold = true
			if out.Rule == "" {
				out.Rule = rule
			}
		}
		e.fired[i]++
		have = true
	}
	return out, have
}

// ThrottleInjected implements lambda.Injector: the attempt is rejected
// when any throttle rule's window contains now and its gate opens. The
// gate draw includes the virtual-time instant, so each retry of a
// backed-off attempt re-draws — a storm rejects each request with the
// rule's probability, rather than condemning one caller for the whole
// window — and a backoff past the window always clears. Virtual time is
// identical run to run, so determinism is unaffected.
func (e *Engine) ThrottleInjected(ref lambda.InvokeRef, now simtime.Time) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	att := strconv.Itoa(ref.Attempt) + "\x00" + strconv.FormatInt(int64(now), 10)
	for i := range e.plan.Rules {
		r := &e.plan.Rules[i]
		if r.Target != TargetLambda || r.Effect != Throttle {
			continue
		}
		from := simtime.Time(r.From)
		if now < from || now >= from+simtime.Time(r.For) {
			continue
		}
		if !matchLambda(r, ref) {
			continue
		}
		if r.MaxCount > 0 && e.fired[i] >= r.MaxCount {
			continue
		}
		if !e.pass(i, r, "throttle", ref.Function, ref.Label, att) {
			continue
		}
		e.fired[i]++
		return true
	}
	return false
}

// OpFault implements objectstore.Injector. With Repeat set, one draw per
// (rule, key) decides whether the key is afflicted; an afflicted key fails
// its first Repeat matching requests and then heals, so bounded retries
// recover. With Repeat zero every matching request draws independently
// under a per-key occurrence counter.
func (e *Engine) OpFault(op objectstore.Op, bucket, key string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.plan.Rules {
		r := &e.plan.Rules[i]
		if r.Target != TargetStore {
			continue
		}
		if len(r.Ops) > 0 && !opListed(r.Ops, op) {
			continue
		}
		if r.Bucket != "" && r.Bucket != bucket {
			continue
		}
		if r.KeyPrefix != "" && !strings.HasPrefix(key, r.KeyPrefix) {
			continue
		}
		if r.MaxCount > 0 && e.fired[i] >= r.MaxCount {
			continue
		}
		kk := strconv.Itoa(i) + "\x00" + bucket + "\x00" + key
		if r.Repeat > 0 {
			if e.keyFails[kk] >= r.Repeat {
				continue // healed
			}
			if !e.pass(i, r, "store", bucket, key) {
				continue
			}
			e.keyFails[kk]++
		} else {
			n := e.occ[kk]
			e.occ[kk]++
			if !e.pass(i, r, "store", bucket, key, strconv.FormatUint(n, 10)) {
				continue
			}
		}
		e.fired[i]++
		msg := r.Error
		if msg == "" {
			msg = "transient error"
		}
		return fmt.Errorf("%w: %s (rule %s, %s %s/%s)", ErrStoreFault, msg, e.ruleName(i), op, bucket, key)
	}
	return nil
}

func opListed(ops []string, op objectstore.Op) bool {
	for _, o := range ops {
		if o == op.String() {
			return true
		}
	}
	return false
}
