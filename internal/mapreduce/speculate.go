package mapreduce

import (
	"encoding/json"
	"fmt"
	"time"

	"astra/internal/flight"
	"astra/internal/lambda"
	"astra/internal/pricing"
	"astra/internal/simtime"
	"astra/internal/telemetry"
)

// SpeculationPolicy enables driver-side straggler mitigation (Starling's
// duplicate-request technique): when a task runs past its model-predicted
// duration times Multiplier, the driver launches a speculative backup of
// the same task and the first finisher wins. Every attempt — original,
// retry, or backup — writes its output under an attempt-suffixed key
// ("<key>.aN"), and the winner is published under the task's final key by
// a server-side copy (the commit step), so duplicate completions can never
// corrupt the next stage's input. Losing attempts are cancelled but remain
// billed for their elapsed duration, per real-platform semantics.
//
// Predicted durations come from the planner's per-stage breakdown
// (model.Exact.PredictBreakdown): MapTask bounds every map task, and
// StepTasks[i] every reducer of reducing step i. A zero prediction
// disables speculation for that phase (tasks still use attempt-suffixed
// keys and the commit step, keeping output handling uniform).
type SpeculationPolicy struct {
	// Multiplier is the straggler threshold: a backup launches once a
	// task's phase has run Multiplier times its predicted duration
	// (default 1.5).
	Multiplier float64
	// MaxBackups bounds speculative launches per task (default 1).
	MaxBackups int
	// MapTask is the predicted map-phase task duration.
	MapTask time.Duration
	// StepTasks holds the predicted per-step reducer durations.
	StepTasks []time.Duration
}

// normalized returns the policy with defaults applied.
func (p *SpeculationPolicy) normalized() SpeculationPolicy {
	out := *p
	if out.Multiplier <= 0 {
		out.Multiplier = 1.5
	}
	if out.MaxBackups <= 0 {
		out.MaxBackups = 1
	}
	return out
}

// FromBreakdown fills the policy's predicted durations from a planner
// breakdown (stage "map" and stages "step-NN", in order).
func (p *SpeculationPolicy) FromBreakdown(bd *flight.Breakdown) {
	if bd == nil {
		return
	}
	p.StepTasks = p.StepTasks[:0]
	for _, st := range bd.Stages {
		switch {
		case st.Name == "map":
			p.MapTask = st.Duration
		case len(st.Name) > 5 && st.Name[:5] == "step-":
			p.StepTasks = append(p.StepTasks, st.Duration)
		}
	}
}

// mapTask returns the predicted map task duration (0 without a policy).
func (p *SpeculationPolicy) mapTask() time.Duration {
	if p == nil {
		return 0
	}
	return p.MapTask
}

// stepTask returns the predicted duration for reducing step pi (0 without
// a policy or when unknown, which disables speculation for that step).
func (p *SpeculationPolicy) stepTask(pi int) time.Duration {
	if p == nil || pi < 0 || pi >= len(p.StepTasks) {
		return 0
	}
	return p.StepTasks[pi]
}

// deadlineFor converts a predicted duration into an absolute launch-backup
// instant (0 = disabled).
func (p SpeculationPolicy) deadlineFor(start simtime.Time, predicted time.Duration) simtime.Time {
	if predicted <= 0 {
		return 0
	}
	return start + time.Duration(p.Multiplier*float64(predicted))
}

// SpeculationStats counts the driver's speculation decisions.
type SpeculationStats struct {
	// BackupsLaunched counts speculative duplicates launched past the
	// straggler threshold.
	BackupsLaunched int
	// Wins counts tasks whose speculative backup finished first.
	Wins int
	// Losses counts backups that were cancelled because the original (or
	// an earlier attempt) finished first.
	Losses int
	// Cancelled counts all invocations cancelled as race losers (backups
	// and overtaken originals alike). Cancelled attempts stay billed.
	Cancelled int
	// Commits counts winner outputs published under their final keys.
	Commits int
}

// Resilience summarizes how a run fared under adversity: what the fault
// injector did to it, and what the driver spent recovering. All costs it
// reports are already included in the Report's CostBreakdown — this
// section attributes them.
type Resilience struct {
	// Injected faults, by effect (platform side).
	LambdaFaults      int
	FailedBeforeStart int
	FailedMidFlight   int
	Straggled         int
	ForcedColdStarts  int
	InjectedThrottles int
	// StoreFaults counts object-store requests aborted by the injector.
	StoreFaults int64
	// TaskRetries counts driver/coordinator re-invocations of failed
	// tasks.
	TaskRetries int
	// Speculation summarizes backup launches and race outcomes.
	Speculation SpeculationStats
	// WastedCost is the billed cost of attempts that produced no used
	// output: failed, timed-out and cancelled invocations. It is the
	// price of adversity plus the overhead of mitigation.
	WastedCost pricing.USD
}

// attemptKey suffixes a task output key with its attempt ordinal, making
// concurrent attempts write disjoint objects.
func attemptKey(key string, attempt int) string {
	return fmt.Sprintf("%s.a%d", key, attempt)
}

// runner abstracts who is awaiting a task: the driver process (mappers,
// final-step reducers, Step Functions steps) or the coordinator lambda
// (inner reducing steps). Both expose the same invoke/race/commit
// primitives, so a wave is launched and awaited by one piece of code.
type runner interface {
	invoke(fn, label string, payload []byte) *lambda.Invocation
	// call re-invokes a failed task and waits for it: a retry.
	call(fn, label string, payload []byte) error
	waitAny(invs []*lambda.Invocation, timeout time.Duration) int
	wait(iv *lambda.Invocation) ([]byte, error)
	copyObj(bucket, src, dst string) error
	cancel(iv *lambda.Invocation)
	now() simtime.Time
}

// procRunner drives tasks from the driver's own simulation process.
type procRunner struct {
	d *Driver
	p *simtime.Proc
}

func (r procRunner) invoke(fn, label string, payload []byte) *lambda.Invocation {
	return r.d.pl.InvokeAsync(r.p, fn, label, payload)
}

// call retries synchronously on the driver's process.
func (r procRunner) call(fn, label string, payload []byte) error {
	_, err := r.d.pl.InvokeLabeled(r.p, fn, label, payload)
	return err
}

func (r procRunner) waitAny(invs []*lambda.Invocation, timeout time.Duration) int {
	return r.d.pl.WaitAny(r.p, invs, timeout)
}

func (r procRunner) wait(iv *lambda.Invocation) ([]byte, error) { return iv.Wait(r.p) }

func (r procRunner) copyObj(bucket, src, dst string) error {
	return r.d.pl.Store().Copy(r.p, bucket, src, dst)
}

func (r procRunner) cancel(iv *lambda.Invocation) { r.d.pl.Cancel(iv) }

func (r procRunner) now() simtime.Time { return r.p.Now() }

// ctxRunner drives tasks from inside the coordinator lambda.
type ctxRunner struct{ ctx *lambda.Ctx }

func (r ctxRunner) invoke(fn, label string, payload []byte) *lambda.Invocation {
	return r.ctx.InvokeAsync(fn, label, payload)
}

// call retries from inside the coordinator: an async invoke it waits on.
func (r ctxRunner) call(fn, label string, payload []byte) error {
	_, err := r.ctx.Wait(r.ctx.InvokeAsync(fn, label, payload))
	return err
}

func (r ctxRunner) waitAny(invs []*lambda.Invocation, timeout time.Duration) int {
	return r.ctx.WaitAny(invs, timeout)
}

func (r ctxRunner) wait(iv *lambda.Invocation) ([]byte, error) { return r.ctx.Wait(iv) }

func (r ctxRunner) copyObj(bucket, src, dst string) error { return r.ctx.Copy(bucket, src, dst) }

func (r ctxRunner) cancel(iv *lambda.Invocation) { r.ctx.Cancel(iv) }

func (r ctxRunner) now() simtime.Time { return r.ctx.Now() }

// awaitSpeculative resolves w's task i first-finisher-wins: it waits on
// the already-dispatched first attempt, launches a speculative backup once
// the task runs Multiplier x pred past the wave's start, relaunches
// (spending the job's retry budget) when every in-flight attempt has
// failed, cancels the losers once a winner completes, and commits the
// winner's output under the task's final key. A zero pred launches no
// backups; the task still commits its winning attempt.
func awaitSpeculative(rn runner, run *jobRun, w *wave, i int, pred time.Duration) error {
	pol := run.policy
	tel := run.spec.Telemetry
	fn, label, finalKey := w.fn, w.labels[i], w.outKeys[i]
	active := []*lambda.Invocation{w.invs[i]}
	keys := []string{attemptKey(finalKey, 0)}
	isBackup := []bool{false}
	next := 1
	backups := 0
	retries := 0
	deadline := pol.deadlineFor(w.start, pred)

	relaunch := func(backup bool) error {
		key := attemptKey(finalKey, next)
		body, err := json.Marshal(taskPayload{Keys: w.inKeys[i], Out: key})
		if err != nil {
			return err
		}
		iv := rn.invoke(fn, label, body)
		active = append(active, iv)
		keys = append(keys, key)
		isBackup = append(isBackup, backup)
		next++
		if backup {
			backups++
			// The next duplicate should fire only if this one straggles
			// too: restart the straggler clock from its launch.
			deadline = rn.now() + time.Duration(pol.Multiplier*float64(pred))
			run.res.Speculation.BackupsLaunched++
			tel.Counter(telemetry.MSpecLaunched).Inc()
			if rec := run.spec.Recorder; rec != nil {
				rec.Emit(flight.Event{Kind: flight.KindSpecLaunch, Time: rn.now(),
					Function: fn, Label: label, Name: key})
			}
		}
		return nil
	}

	var lastErr error
	for {
		if len(active) == 0 {
			// Every attempt failed; spend the retry budget.
			if retries >= run.spec.TaskRetries {
				return lastErr
			}
			retries++
			run.taskRetries++
			if err := relaunch(false); err != nil {
				return err
			}
		}
		// Bound the wait by the backup-launch deadline while speculation
		// budget remains; otherwise wait for the next completion.
		timeout := time.Duration(-1)
		if deadline > 0 && backups < pol.MaxBackups {
			if rem := deadline - rn.now(); rem > 0 {
				timeout = rem
			} else {
				if err := relaunch(true); err != nil {
					return err
				}
				continue
			}
		}
		idx := rn.waitAny(active, timeout)
		if idx < 0 {
			// Deadline reached with every attempt still running: the task
			// is straggling — duplicate it.
			if err := relaunch(true); err != nil {
				return err
			}
			continue
		}
		if _, err := rn.wait(active[idx]); err != nil {
			lastErr = err
			active = append(active[:idx], active[idx+1:]...)
			keys = append(keys[:idx], keys[idx+1:]...)
			isBackup = append(isBackup[:idx], isBackup[idx+1:]...)
			continue
		}

		// First finisher wins: cancel the rest (billed losers), then
		// publish the winner under the task's final key.
		for j := range active {
			if j == idx {
				continue
			}
			rn.cancel(active[j])
			run.outstanding = append(run.outstanding, active[j])
			run.res.Speculation.Cancelled++
			tel.Counter(telemetry.MSpecCancelled).Inc()
			if isBackup[j] {
				run.res.Speculation.Losses++
				tel.Counter(telemetry.MSpecLosses).Inc()
			}
		}
		if isBackup[idx] {
			run.res.Speculation.Wins++
			tel.Counter(telemetry.MSpecWins).Inc()
		}
		if backups > 0 {
			if rec := run.spec.Recorder; rec != nil {
				rec.Emit(flight.Event{Kind: flight.KindSpecWin, Time: rn.now(),
					Function: fn, Label: label, Name: keys[idx]})
			}
		}
		if err := rn.copyObj(run.interBucket, keys[idx], finalKey); err != nil {
			return fmt.Errorf("commit %s: %w", finalKey, err)
		}
		run.res.Speculation.Commits++
		tel.Counter(telemetry.MSpecCommits).Inc()
		return nil
	}
}
