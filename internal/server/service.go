// Package server is Astra's planning-as-a-service control plane: a
// long-running, gracefully-shutdownable HTTP/JSON front end that serves
// many concurrent tenants from one process-wide pair of planning caches.
//
// The package is layered gRPC-style: a Service interface with typed
// request/response structs (internal/api) carries the semantics, and the
// HTTP layer (http.go) only translates — parse, admit, cache, encode —
// so a proto surface can be bolted onto the same Service later without
// touching planning code.
//
// Cross-cutting layers, outermost first:
//
//	drain gate    503 once Shutdown begins; in-flight requests complete
//	admission     per-tenant token bucket + in-flight cap + bounded queue
//	              (deterministic 429 with Retry-After)
//	response      TTL'd LRU of rendered bodies keyed by canonical request
//	cache         fingerprint — a warm repeat never touches the search,
//	              and concurrent cold repeats share one
//	service       astra.Plan / PlanBatch / Frontier / qos.Ledger over the
//	              shared template + prediction caches
package server

import (
	"context"
	"fmt"
	"time"

	"astra"
	"astra/internal/api"
	"astra/internal/model"
	"astra/internal/optimizer"
	"astra/internal/qos"
	"astra/internal/telemetry"
)

// Service is the typed planning surface the HTTP layer fronts. Frontier
// additionally streams anytime updates through observe (nil for
// non-streaming callers); the returned response's Final update is
// identical to the last observed one.
type Service interface {
	Plan(ctx context.Context, req *api.PlanRequest) (*api.PlanResponse, error)
	PlanBatch(ctx context.Context, req *api.PlanBatchRequest) (*api.PlanBatchResponse, error)
	Frontier(ctx context.Context, req *api.FrontierRequest, observe func(api.FrontierUpdate)) (*api.FrontierResponse, error)
	TenantSLO(ctx context.Context, req *api.TenantSLORequest) (*api.TenantSLOResponse, error)
}

// ServiceConfig wires a planning service. Zero-valued fields default to
// the process-wide shared caches (a nil cache is passed to astra, whose
// nil means the shared one), a fresh telemetry registry, a fresh SLO
// ledger and serial per-request searches (the server's concurrency comes
// from concurrent requests, not from fanning one request across every
// core). A request that names no solver gets Auto.
type ServiceConfig struct {
	Templates *optimizer.TemplateCache
	Cache     *model.PredictionCache
	Tel       *telemetry.Registry
	Ledger    *qos.Ledger
	// Parallelism bounds each request's inner search pool (0 is forced
	// to 1; a shared service must not let one tenant's plan occupy every
	// core).
	Parallelism int
}

// defaultSLOFactor is the deadline multiple, over the plan's predicted
// JCT, of an executed request that names no slo_factor.
const defaultSLOFactor = 1.05

type service struct {
	cfg ServiceConfig
	tel *telemetry.Registry
	led *qos.Ledger
}

// NewService builds the production Service over the astra public API.
func NewService(cfg ServiceConfig) Service {
	tel := cfg.Tel
	if tel == nil {
		tel = telemetry.New()
	}
	led := cfg.Ledger
	if led == nil {
		led = qos.NewLedger()
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	return &service{cfg: cfg, tel: tel, led: led}
}

// planOpts is the option set every planning call shares.
func (s *service) planOpts(solver optimizer.Solver) []astra.PlanOption {
	return []astra.PlanOption{
		astra.WithSolver(solver),
		astra.WithParallelism(s.cfg.Parallelism),
		astra.WithTemplateCache(s.cfg.Templates),
		astra.WithPlanCache(s.cfg.Cache),
		astra.WithTelemetry(s.tel),
	}
}

func (s *service) Plan(ctx context.Context, req *api.PlanRequest) (*api.PlanResponse, error) {
	job, obj, solver, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	plan, err := astra.PlanContext(ctx, job, obj, s.planOpts(solver)...)
	if err != nil {
		return nil, err
	}
	resp := planResponse(plan)
	if req.Execute {
		run, err := s.execute(req, job, plan)
		if err != nil {
			return nil, err
		}
		resp.Run = run
	}
	return resp, nil
}

// execute runs the chosen plan on a fresh simulated platform under a
// QoS monitor, settling the outcome into the ledger under the caller's
// tenant so GET /v1/tenants/{id}/slo reflects it.
func (s *service) execute(req *api.PlanRequest, job astra.Job, plan *astra.ExecutionPlan) (*api.RunOutcome, error) {
	factor := req.SLOFactor
	if factor <= 0 {
		factor = defaultSLOFactor
	}
	mon := astra.NewQoSMonitor(astra.QoSOptions{
		Deadline: time.Duration(factor * float64(plan.Exact.JCT())),
		Tenant:   api.ResolveTenant("", req.Tenant),
		Job:      job.Profile.Name,
		Ledger:   s.led,
	})
	rep, err := astra.RunWith(model.DefaultParams(job), plan.Config, astra.WithQoSMonitor(mon))
	if err != nil {
		return nil, err
	}
	s.led.Publish(s.tel)
	snap := mon.Snapshot()
	return &api.RunOutcome{
		MeasuredJCTSeconds: rep.JCT.Seconds(),
		MeasuredCostUSD:    float64(rep.Cost.Total()),
		DeadlineSeconds:    snap.Deadline.Seconds(),
		Attained:           mon.State() != qos.Breached,
	}, nil
}

// PlanBatch maps the wire batch onto astra.PlanBatch: slots that fail
// validation get their taxonomy code in place, valid slots plan through
// the shared concurrent batch front end, and indexes stay aligned
// throughout. Every slot plans with the Auto solver and none is executed,
// so a slot that sets solver, execute or slo_factor is invalid — those
// are Plan-endpoint affordances.
func (s *service) PlanBatch(ctx context.Context, req *api.PlanBatchRequest) (*api.PlanBatchResponse, error) {
	out := &api.PlanBatchResponse{Results: make([]api.BatchResult, len(req.Requests))}
	var valid []astra.BatchRequest
	var slots []int
	for i := range req.Requests {
		job, obj, err := resolveBatchItem(&req.Requests[i])
		if err != nil {
			out.Results[i] = api.BatchResult{Error: err.Error(), Code: api.ErrorCode(err)}
			continue
		}
		valid = append(valid, astra.BatchRequest{Job: job, Objective: obj})
		slots = append(slots, i)
	}
	if len(valid) > 0 {
		results, err := astra.PlanBatch(ctx, valid,
			astra.WithTemplateCache(s.cfg.Templates),
			astra.WithPlanCache(s.cfg.Cache),
			astra.WithTelemetry(s.tel))
		if err != nil {
			return nil, err
		}
		for j, r := range results {
			i := slots[j]
			if r.Err != nil {
				out.Results[i] = api.BatchResult{Error: r.Err.Error(), Code: api.ErrorCode(r.Err)}
				continue
			}
			out.Results[i] = api.BatchResult{Plan: planResponse(r.Plan)}
		}
	}
	return out, nil
}

// resolveBatchItem resolves one batch slot, rejecting the per-request
// fields a batch does not honour.
func resolveBatchItem(r *api.PlanRequest) (astra.Job, astra.Objective, error) {
	switch {
	case r.Solver != "":
		return astra.Job{}, astra.Objective{}, fmt.Errorf("%w: a batch item cannot name a solver", api.ErrInvalid)
	case r.Execute:
		return astra.Job{}, astra.Objective{}, fmt.Errorf("%w: a batch item cannot set execute", api.ErrInvalid)
	case r.SLOFactor != 0:
		return astra.Job{}, astra.Objective{}, fmt.Errorf("%w: a batch item cannot set slo_factor", api.ErrInvalid)
	}
	job, obj, _, err := r.Resolve()
	return job, obj, err
}

func (s *service) Frontier(ctx context.Context, req *api.FrontierRequest, observe func(api.FrontierUpdate)) (*api.FrontierResponse, error) {
	job, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	var last api.FrontierUpdate
	if _, err := astra.FrontierContext(ctx, job,
		astra.WithParallelism(s.cfg.Parallelism),
		astra.WithTemplateCache(s.cfg.Templates),
		astra.WithPlanCache(s.cfg.Cache),
		astra.WithTelemetry(s.tel),
		astra.WithFrontierSize(req.Size),
		astra.WithFrontierObserver(func(u astra.FrontierUpdate) {
			wire := api.FrontierUpdateOf(u)
			last = wire
			if observe != nil {
				observe(wire)
			}
		}),
	); err != nil {
		return nil, err
	}
	return &api.FrontierResponse{Final: last}, nil
}

func (s *service) TenantSLO(_ context.Context, req *api.TenantSLORequest) (*api.TenantSLOResponse, error) {
	snap := s.led.Snapshot()
	resp := &api.TenantSLOResponse{Tenant: req.Tenant}
	for _, e := range snap.Entries {
		if e.Tenant != req.Tenant {
			continue
		}
		resp.Runs += e.Runs
		resp.Attained += e.Attained
		resp.Breached += e.Breached
		resp.Entries = append(resp.Entries, e)
	}
	return resp, nil
}

// planResponse renders a plan into its deterministic wire form.
func planResponse(p *astra.ExecutionPlan) *api.PlanResponse {
	return &api.PlanResponse{
		Config:              p.Config,
		PredictedJCTSeconds: p.Exact.JCT().Seconds(),
		PredictedCostUSD:    float64(p.Exact.TotalCost()),
		Solver:              p.Search.Solver.String(),
		Search: api.SearchSummary{
			CalibrationRounds: p.Search.CalibrationRounds,
			CacheHits:         p.Search.CacheHits,
			CacheMisses:       p.Search.CacheMisses,
			DAGBuilds:         p.Search.DAGBuilds,
		},
		Explain: p.Explain(),
	}
}
