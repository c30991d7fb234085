// Package api is the typed request/response surface of the Astra
// planning service: the gRPC-shaped structs that internal/server's
// Service interface speaks, together with their canonical JSON encoding,
// strict decoding, validation, and request fingerprinting. Keeping the
// schema in a leaf package lets the HTTP server and its Go callers (the
// benchmark's per-layer walk among them) share one definition (no drift
// between what the server parses and what a client sends) and leaves
// room to bolt a proto surface onto the same structs later.
//
// The error taxonomy is part of the schema: a request that fails to
// parse or validate maps to 400 (ErrInvalid, optimizer.ErrInvalidObjective),
// an objective no configuration satisfies maps to 422
// (optimizer.ErrNoFeasiblePlan), and anything else is a 500. Admission
// rejections (429) and drain rejections (503) are produced by the server
// layer, not by request semantics, so they live there.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"astra/internal/mapreduce"
	"astra/internal/optimizer"
	"astra/internal/pricing"
	"astra/internal/qos"
	"astra/internal/workload"
)

// ErrInvalid is wrapped by every request-validation failure, so servers
// can map the whole class to one status code with errors.Is.
var ErrInvalid = errors.New("api: invalid request")

// MaxRequestBytes bounds a request body. A planning request is a few
// hundred bytes, so the cap is a full batch (maxBatchRequests of them)
// at 1 KiB each; a body past it is abuse, not load, and the server
// answers it 413.
const MaxRequestBytes = maxBatchRequests << 10

// PlanRequest asks for one optimal configuration.
type PlanRequest struct {
	// Tenant identifies the caller for admission control and SLO
	// accounting. The X-Astra-Tenant header takes precedence; left
	// empty everywhere, the server accounts the request to "anonymous".
	Tenant string `json:"tenant,omitempty"`
	// Workload names a calibration profile: wordcount, sort, query,
	// grep, spark-wordcount, or spark-sql.
	Workload string `json:"workload"`
	// NumObjects is the input object count (> 0).
	NumObjects int `json:"num_objects"`
	// TotalBytes sizes the dataset (split evenly across objects).
	// Exactly one of TotalBytes and ObjectBytes must be positive.
	TotalBytes int64 `json:"total_bytes,omitempty"`
	// ObjectBytes sizes each input object directly.
	ObjectBytes int64 `json:"object_bytes,omitempty"`
	// Objective is the planning goal and its constraint.
	Objective ObjectiveSpec `json:"objective"`
	// Solver optionally selects the search strategy: auto (default; csp
	// names it too) or algorithm1. Brute force is Go API only; its name
	// is a 400.
	Solver string `json:"solver,omitempty"`
	// Execute additionally runs the chosen plan on a fresh simulated
	// platform under a streaming QoS monitor; the response gains a Run
	// section and the outcome settles into the server's SLO ledger under
	// (tenant, workload). Executed requests bypass the response cache.
	Execute bool `json:"execute,omitempty"`
	// SLOFactor scales an executed run's deadline relative to the
	// predicted JCT (<= 0: the server default, 1.05).
	SLOFactor float64 `json:"slo_factor,omitempty"`
}

// ObjectiveSpec is the wire form of an optimizer.Objective.
type ObjectiveSpec struct {
	// Goal is "min_time" (fastest under budget) or "min_cost" (cheapest
	// under deadline); "time" and "cost" are accepted aliases.
	Goal string `json:"goal"`
	// BudgetUSD constrains min_time plans.
	BudgetUSD float64 `json:"budget_usd,omitempty"`
	// Deadline constrains min_cost plans, as a Go duration string
	// ("90s", "5m").
	Deadline string `json:"deadline,omitempty"`
}

// Workloads lists the accepted workload names, sorted.
func Workloads() []string { return workload.Names() }

// resolveJob validates the shared job fields and builds the workload.Job.
func resolveJob(name string, numObjects int, totalBytes, objectBytes int64) (workload.Job, error) {
	pf, err := workload.ByName(strings.ToLower(name))
	if err != nil {
		return workload.Job{}, fmt.Errorf("%w: unknown workload %q (have %s)",
			ErrInvalid, name, strings.Join(Workloads(), ", "))
	}
	if numObjects <= 0 {
		return workload.Job{}, fmt.Errorf("%w: num_objects must be positive, got %d", ErrInvalid, numObjects)
	}
	switch {
	case totalBytes > 0 && objectBytes > 0:
		return workload.Job{}, fmt.Errorf("%w: set total_bytes or object_bytes, not both", ErrInvalid)
	case totalBytes > 0:
		objectBytes = totalBytes / int64(numObjects)
	case objectBytes > 0:
		// already per-object
	default:
		return workload.Job{}, fmt.Errorf("%w: one of total_bytes, object_bytes must be positive", ErrInvalid)
	}
	if objectBytes <= 0 {
		return workload.Job{}, fmt.Errorf("%w: %d objects over %d bytes leaves empty objects", ErrInvalid, numObjects, totalBytes)
	}
	return workload.Job{Profile: pf, NumObjects: numObjects, ObjectSize: objectBytes}, nil
}

// Resolve validates the objective spec into an optimizer.Objective.
func (o ObjectiveSpec) Resolve() (optimizer.Objective, error) {
	switch strings.ToLower(o.Goal) {
	case "min_time", "min-time", "time":
		if o.Deadline != "" {
			return optimizer.Objective{}, fmt.Errorf("%w: min_time takes budget_usd, not deadline", ErrInvalid)
		}
		return optimizer.Objective{Goal: optimizer.MinTimeUnderBudget, Budget: pricing.USD(o.BudgetUSD)}, nil
	case "min_cost", "min-cost", "cost":
		if o.BudgetUSD != 0 {
			return optimizer.Objective{}, fmt.Errorf("%w: min_cost takes deadline, not budget_usd", ErrInvalid)
		}
		d, err := time.ParseDuration(o.Deadline)
		if err != nil {
			return optimizer.Objective{}, fmt.Errorf("%w: bad deadline %q: %v", ErrInvalid, o.Deadline, err)
		}
		return optimizer.Objective{Goal: optimizer.MinCostUnderDeadline, Deadline: d}, nil
	default:
		return optimizer.Objective{}, fmt.Errorf("%w: goal must be min_time or min_cost, got %q", ErrInvalid, o.Goal)
	}
}

// ParseSolver maps a wire solver name to the optimizer constant; ""
// selects Auto.
func ParseSolver(name string) (optimizer.Solver, error) {
	s, err := optimizer.ParseSolver(name)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return s, nil
}

// Resolve validates the request into the planner's input types. The
// objective is only structurally checked here; Objective.Validate (and
// therefore ErrInvalidObjective) stays with the planner so the wire
// layer and the library agree on one source of truth.
func (r *PlanRequest) Resolve() (workload.Job, optimizer.Objective, optimizer.Solver, error) {
	job, err := resolveJob(r.Workload, r.NumObjects, r.TotalBytes, r.ObjectBytes)
	if err != nil {
		return workload.Job{}, optimizer.Objective{}, 0, err
	}
	obj, err := r.Objective.Resolve()
	if err != nil {
		return workload.Job{}, optimizer.Objective{}, 0, err
	}
	solver, err := ParseSolver(r.Solver)
	if err != nil {
		return workload.Job{}, optimizer.Objective{}, 0, err
	}
	return job, obj, solver, nil
}

// Fingerprint is the canonical response-cache key. It renders what
// Resolve returns — the job, the objective and the solver — not how the
// request spelled them, so "min_cost" with "90s" and "cost" with "1m30s"
// share one cached response. Execute and SLOFactor take part as given.
// Tenant is deliberately excluded: planning is tenant-independent, so
// identical requests from different tenants share one cached response.
// Executed requests bypass the cache entirely, but Execute still
// participates so a stale key can never alias the two forms. A request
// that does not resolve has no key (""): it bypasses the cache, so it
// can never be served a valid request's answer.
func (r *PlanRequest) Fingerprint() string {
	job, obj, solver, err := r.Resolve()
	if err != nil {
		return ""
	}
	return strings.Join([]string{
		"plan",
		jobKey(job),
		strconv.Itoa(int(obj.Goal)),
		strconv.FormatFloat(float64(obj.Budget), 'g', -1, 64),
		strconv.FormatInt(int64(obj.Deadline), 10),
		strconv.Itoa(int(solver)),
		strconv.FormatBool(r.Execute),
		strconv.FormatFloat(r.SLOFactor, 'g', -1, 64),
	}, "|")
}

// jobKey renders a resolved job for a cache key: the profile's canonical
// name, the object count and the per-object size.
func jobKey(job workload.Job) string {
	return job.Profile.Name + "|" + strconv.Itoa(job.NumObjects) + "|" + strconv.FormatInt(job.ObjectSize, 10)
}

// DecodeStrict decodes one JSON document, rejecting unknown fields (so a
// typo'd option is a 400, not a silent default) and trailing garbage.
// The reader bounds the body (the server's is an http.MaxBytesReader of
// MaxRequestBytes); its error stays in the chain for ErrorCode to read.
// The astra CLI reads its -spec job files with it too.
func DecodeStrict(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing data after request body", ErrInvalid)
	}
	return nil
}

// DecodePlanRequest strictly parses one PlanRequest body.
func DecodePlanRequest(rd io.Reader) (*PlanRequest, error) {
	var req PlanRequest
	if err := DecodeStrict(rd, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// maxBatchRequests bounds the plans one batch body may ask for: the batch
// is admitted as one request, so without a cap one admission ticket
// could carry the ~1k cold plans a MaxRequestBytes body holds.
const maxBatchRequests = 256

// PlanBatchRequest plans many jobs in one call; results are
// index-aligned with Requests. Per-item Tenant fields are ignored — the
// batch is admitted and accounted as one request from its caller, and
// may hold at most maxBatchRequests requests.
type PlanBatchRequest struct {
	Tenant   string        `json:"tenant,omitempty"`
	Requests []PlanRequest `json:"requests"`
}

// DecodePlanBatchRequest strictly parses one batch body.
func DecodePlanBatchRequest(rd io.Reader) (*PlanBatchRequest, error) {
	var req PlanBatchRequest
	if err := DecodeStrict(rd, &req); err != nil {
		return nil, err
	}
	if len(req.Requests) == 0 {
		return nil, fmt.Errorf("%w: batch has no requests", ErrInvalid)
	}
	if len(req.Requests) > maxBatchRequests {
		return nil, fmt.Errorf("%w: batch has %d requests, at most %d are allowed", ErrInvalid, len(req.Requests), maxBatchRequests)
	}
	return &req, nil
}

// FrontierRequest asks for a job's time/cost Pareto frontier.
type FrontierRequest struct {
	Tenant      string `json:"tenant,omitempty"`
	Workload    string `json:"workload"`
	NumObjects  int    `json:"num_objects"`
	TotalBytes  int64  `json:"total_bytes,omitempty"`
	ObjectBytes int64  `json:"object_bytes,omitempty"`
	// Size is the target number of frontier points (<= 0: the sweep
	// default, optimizer.DefaultFrontierSize).
	Size int `json:"size,omitempty"`
}

// Resolve validates the request into the sweep's job.
func (r *FrontierRequest) Resolve() (workload.Job, error) {
	return resolveJob(r.Workload, r.NumObjects, r.TotalBytes, r.ObjectBytes)
}

// Fingerprint is the canonical cache key for a non-streaming frontier:
// the resolved job and the point count the sweep targets, so size 0 and
// size 24 share one key. Like PlanRequest.Fingerprint, a request that
// does not resolve has no key ("") and bypasses the cache.
func (r *FrontierRequest) Fingerprint() string {
	job, err := r.Resolve()
	if err != nil {
		return ""
	}
	size := r.Size
	if size <= 0 {
		size = optimizer.DefaultFrontierSize
	}
	return "frontier|" + jobKey(job) + "|" + strconv.Itoa(size)
}

// DecodeFrontierRequest strictly parses one frontier body.
func DecodeFrontierRequest(rd io.Reader) (*FrontierRequest, error) {
	var req FrontierRequest
	if err := DecodeStrict(rd, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// FrontierRequestFromQuery builds a FrontierRequest from URL query
// parameters, the GET form of the endpoint:
//
//	GET /v1/frontier?workload=sort&objects=200&total_bytes=107374182400&size=16
func FrontierRequestFromQuery(q url.Values) (*FrontierRequest, error) {
	req := &FrontierRequest{
		Tenant:   q.Get("tenant"),
		Workload: q.Get("workload"),
	}
	for _, f := range []struct {
		key string
		dst *int64
	}{
		{"total_bytes", &req.TotalBytes},
		{"object_bytes", &req.ObjectBytes},
	} {
		if v := q.Get(f.key); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: bad %s %q", ErrInvalid, f.key, v)
			}
			*f.dst = n
		}
	}
	for _, f := range []struct {
		key string
		dst *int
	}{
		{"objects", &req.NumObjects},
		{"size", &req.Size},
	} {
		if v := q.Get(f.key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("%w: bad %s %q", ErrInvalid, f.key, v)
			}
			*f.dst = n
		}
	}
	return req, nil
}

// TenantSLORequest asks for one tenant's SLO ledger rows.
type TenantSLORequest struct {
	Tenant string `json:"tenant"`
}

// PlanResponse is one planned configuration. Wall-clock search time is
// deliberately absent so identical requests produce identical bodies —
// the property the response cache and the determinism tests lean on.
type PlanResponse struct {
	Config              mapreduce.Config `json:"config"`
	PredictedJCTSeconds float64          `json:"predicted_jct_seconds"`
	PredictedCostUSD    float64          `json:"predicted_cost_usd"`
	Solver              string           `json:"solver"`
	Search              SearchSummary    `json:"search"`
	Explain             string           `json:"explain,omitempty"`
	Run                 *RunOutcome      `json:"run,omitempty"`
}

// SearchSummary is the deterministic subset of the plan's search stats.
type SearchSummary struct {
	CalibrationRounds int64 `json:"calibration_rounds"`
	CacheHits         int64 `json:"cache_hits"`
	CacheMisses       int64 `json:"cache_misses"`
	DAGBuilds         int64 `json:"dag_builds"`
}

// RunOutcome reports an executed plan's measured result against its SLO.
type RunOutcome struct {
	MeasuredJCTSeconds float64 `json:"measured_jct_seconds"`
	MeasuredCostUSD    float64 `json:"measured_cost_usd"`
	DeadlineSeconds    float64 `json:"deadline_seconds"`
	Attained           bool    `json:"attained"`
}

// PlanBatchResponse carries index-aligned per-request outcomes.
type PlanBatchResponse struct {
	Results []BatchResult `json:"results"`
}

// BatchResult is one batch slot: exactly one of Plan and Error is set.
type BatchResult struct {
	Plan  *PlanResponse `json:"plan,omitempty"`
	Error string        `json:"error,omitempty"`
	// Code is the per-request status under the service's error taxonomy
	// (400 invalid, 422 infeasible, 500 otherwise); 0 when Plan is set.
	Code int `json:"code,omitempty"`
}

// FrontierUpdate is one anytime snapshot on the wire; the final update
// of a stream byte-matches the body a non-streaming request returns.
type FrontierUpdate struct {
	Phase  int             `json:"phase"`
	Final  bool            `json:"final"`
	Points []FrontierPoint `json:"points"`
	Stats  FrontierStats   `json:"stats"`
}

// FrontierPoint is one Pareto point on the wire.
type FrontierPoint struct {
	JCTSeconds float64          `json:"jct_seconds"`
	CostUSD    float64          `json:"cost_usd"`
	Config     mapreduce.Config `json:"config"`
}

// FrontierStats is the deterministic subset of the sweep's stats
// (wall-clock and cache traffic omitted: both vary run to run, and two
// identical seeded sweeps must stream byte-identical updates).
type FrontierStats struct {
	Phases      int64 `json:"phases"`
	Searches    int64 `json:"searches"`
	Pruned      int64 `json:"pruned"`
	Evaluations int64 `json:"evaluations"`
}

// FrontierUpdateOf renders one anytime update into its wire form — the
// one schema both the planning service's /v1/frontier and the
// observability plane's /frontier stream.
func FrontierUpdateOf(u optimizer.FrontierUpdate) FrontierUpdate {
	wire := FrontierUpdate{
		Phase: u.Phase,
		Final: u.Final,
		Stats: FrontierStats{
			Phases:      u.Stats.Phases,
			Searches:    u.Stats.Searches,
			Pruned:      u.Stats.Pruned,
			Evaluations: u.Stats.Evaluations,
		},
	}
	for _, pt := range u.Points {
		wire.Points = append(wire.Points, FrontierPoint{
			JCTSeconds: pt.Pred.TotalSec(),
			CostUSD:    float64(pt.Pred.TotalCost()),
			Config:     pt.Config,
		})
	}
	return wire
}

// FrontierResponse is the completed sweep: its final update.
type FrontierResponse struct {
	Final FrontierUpdate
}

// TenantSLOResponse is one tenant's slice of the SLO ledger.
type TenantSLOResponse struct {
	Tenant   string            `json:"tenant"`
	Runs     int               `json:"runs"`
	Attained int               `json:"attained"`
	Breached int               `json:"breached"`
	Entries  []qos.LedgerEntry `json:"entries,omitempty"`
}

// ErrorResponse is the JSON error envelope every non-2xx status carries.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterMS accompanies 429s: the precise wait the integer-second
	// Retry-After header rounds up from.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ErrorCode maps a service error onto the taxonomy: 413 for a body past
// MaxRequestBytes, 400 for requests that are malformed or carry an
// invalid objective, 422 for objectives no configuration satisfies, 500
// otherwise.
func ErrorCode(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrInvalid), errors.Is(err, optimizer.ErrInvalidObjective):
		return http.StatusBadRequest
	case errors.Is(err, optimizer.ErrNoFeasiblePlan):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// Tenant resolution order: header, then body field, then "anonymous".
func ResolveTenant(header, body string) string {
	if header != "" {
		return header
	}
	if body != "" {
		return body
	}
	return "anonymous"
}

// TenantHeader is the HTTP header carrying the caller's tenant id.
const TenantHeader = "X-Astra-Tenant"

// Response headers carrying per-request server timing; bodies stay
// byte-identical across cache hits so timing rides out of band.
const (
	QueueHeader   = "X-Astra-Queue-Ns"
	ServiceHeader = "X-Astra-Service-Ns"
	CacheHeader   = "X-Astra-Cache" // "hit" | "miss" | "bypass"
)
