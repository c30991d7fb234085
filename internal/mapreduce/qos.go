package mapreduce

import (
	"fmt"

	"astra/internal/flight"
	"astra/internal/simtime"
)

// QoSStage describes one driver stage for a streaming QoS monitor: the
// stage name (matching the model's predicted-breakdown stage names: "map",
// "coordinator", "step-NN") and how many tasks must complete before the
// stage's barrier releases.
type QoSStage struct {
	Name  string
	Tasks int
}

// QoSMonitor is the driver's streaming QoS hook: a monitor that follows
// the run's flight-recorder event stream in virtual time and maintains
// drift, deadline-risk and cost-burn state while the job executes.
//
// The contract mirrors Telemetry and Recorder: a monitor is observe-only
// (the simulated outcome is bit-identical with or without one), and every
// method must be safe on a nil concrete receiver. BeginRun is called once
// at the job start with the recorder the run emits into, the virtual start
// instant and the stage plan; Poll is called at driver barriers (each call
// may consume newly recorded events); EndRun is called once after the run's
// final events (including drained speculative losers and phase markers)
// have been recorded.
type QoSMonitor interface {
	BeginRun(rec *flight.Recorder, t0 simtime.Time, stages []QoSStage)
	Poll(now simtime.Time)
	EndRun(end simtime.Time)
}

// qosStages derives the monitor's stage plan from the orchestration: the
// mapper wave, the coordinator (when one drives the reduce phase), and
// each reducing step. Names match Exact.PredictBreakdown's stage names so
// the monitor can line tasks up against the plan's predicted schedule.
func qosStages(spec JobSpec, orch Orchestration) []QoSStage {
	stages := make([]QoSStage, 0, 2+orch.NumSteps())
	stages = append(stages, QoSStage{Name: "map", Tasks: orch.Mappers()})
	if spec.Orchestrator == CoordinatorLambda {
		stages = append(stages, QoSStage{Name: "coordinator", Tasks: 1})
	}
	for pi := 0; pi < orch.NumSteps(); pi++ {
		stages = append(stages, QoSStage{
			Name:  fmt.Sprintf("step-%02d", pi),
			Tasks: orch.Step(pi).Count(),
		})
	}
	return stages
}
