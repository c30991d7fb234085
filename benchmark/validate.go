package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Response validation. Every timed response is checked against the
// request that produced it, using nothing but the wire schema: a later
// refactor of the server's internals cannot make the benchmark lie.

// planResponse is the part of POST /v1/plan's body the benchmark reads.
type planResponse struct {
	Config struct {
		MapperMemMB    int
		CoordMemMB     int
		ReducerMemMB   int
		ObjsPerMapper  int
		ObjsPerReducer int
	} `json:"config"`
	PredictedJCTSeconds float64 `json:"predicted_jct_seconds"`
	PredictedCostUSD    float64 `json:"predicted_cost_usd"`
	Solver              string  `json:"solver"`
	Run                 *struct {
		MeasuredJCTSeconds float64 `json:"measured_jct_seconds"`
		Attained           bool    `json:"attained"`
	} `json:"run"`
}

// objective is the exact-model value the request asked to minimize.
func (p *planResponse) objective(g goal) float64 {
	if g == minCost {
		return p.PredictedCostUSD
	}
	return p.PredictedJCTSeconds
}

// jctTolerance is how far an executed run's measured JCT may sit from
// the prediction: the model-vs-simulator identity holds to rounding.
const jctTolerance = 1e-6

// checkHead checks what every response must carry: status 200 and, when
// the request expects one, the X-Astra-Cache verdict.
func checkHead(r *request, resp *response) error {
	if resp.Status != 200 {
		return fmt.Errorf("status %d: %s", resp.Status, clip(resp.Body))
	}
	if r.WantCache != "" && resp.Cache != r.WantCache {
		return fmt.Errorf("X-Astra-Cache %q, want %q", resp.Cache, r.WantCache)
	}
	return nil
}

// validatePlan checks one plan response: status, cache verdict, a usable
// configuration, the constraint met under the exact model, and for
// executed requests an attained run whose measured JCT matches the
// prediction.
func validatePlan(r *request, resp *response) (*planResponse, error) {
	if err := checkHead(r, resp); err != nil {
		return nil, err
	}
	var p planResponse
	if err := json.Unmarshal(resp.Body, &p); err != nil {
		return nil, fmt.Errorf("body: %v", err)
	}
	c := p.Config
	if c.MapperMemMB <= 0 || c.CoordMemMB <= 0 || c.ReducerMemMB <= 0 || c.ObjsPerMapper <= 0 || c.ObjsPerReducer <= 0 {
		return nil, fmt.Errorf("unusable config %+v", c)
	}
	if !(p.PredictedJCTSeconds > 0) || !(p.PredictedCostUSD > 0) || p.Solver == "" {
		return nil, fmt.Errorf("missing prediction or solver: jct %v cost %v solver %q",
			p.PredictedJCTSeconds, p.PredictedCostUSD, p.Solver)
	}
	switch r.Goal {
	case minTime:
		if p.PredictedCostUSD > r.BudgetUSD {
			return nil, fmt.Errorf("predicted cost $%v over budget $%v", p.PredictedCostUSD, r.BudgetUSD)
		}
	case minCost:
		if p.PredictedJCTSeconds*1e9 > float64(r.DeadlineNs) {
			return nil, fmt.Errorf("predicted JCT %vs past deadline %dns", p.PredictedJCTSeconds, r.DeadlineNs)
		}
	}
	switch {
	case r.Execute && p.Run == nil:
		return nil, fmt.Errorf("executed request has no run section")
	case r.Execute && !p.Run.Attained:
		return nil, fmt.Errorf("run missed its SLO")
	case r.Execute && math.Abs(p.Run.MeasuredJCTSeconds-p.PredictedJCTSeconds) > jctTolerance:
		return nil, fmt.Errorf("measured JCT %vs is not the predicted %vs",
			p.Run.MeasuredJCTSeconds, p.PredictedJCTSeconds)
	case !r.Execute && p.Run != nil:
		return nil, fmt.Errorf("planned-only request has a run section")
	}
	return &p, nil
}

// validateReplay checks a response-cache hit: the verdict header and a
// body byte-identical to the one the priming request received.
func validateReplay(r *request, resp *response, primed []byte) error {
	if err := checkHead(r, resp); err != nil {
		return err
	}
	if !bytes.Equal(resp.Body, primed) {
		return fmt.Errorf("body differs from the primed response")
	}
	return nil
}

// frontierUpdate is one frontier snapshot on the wire.
type frontierUpdate struct {
	Final  bool `json:"final"`
	Points []struct {
		JCTSeconds float64 `json:"jct_seconds"`
		CostUSD    float64 `json:"cost_usd"`
	} `json:"points"`
}

// sweep is what a validated frontier response amounts to.
type sweep struct {
	Frames int
	Final  frontierUpdate
}

// validateFrontier checks one frontier response. A stream must be a
// sequence of SSE frames numbered from 1 whose last frame is final; the
// final frontier must run fastest first with every point non-dominated
// (JCT strictly rising, cost strictly falling); and when reference is
// set the final frame's data must equal it byte for byte — it is the
// body ?stream=0 returned for the same shape.
func validateFrontier(r *request, resp *response, stream bool, reference []byte) (*sweep, error) {
	if err := checkHead(r, resp); err != nil {
		return nil, err
	}
	sw := &sweep{Frames: 1}
	final := resp.Body
	if stream {
		frames := bytes.Split(bytes.TrimSuffix(resp.Body, []byte("\n\n")), []byte("\n\n"))
		for k, f := range frames {
			prefix := "id: " + strconv.Itoa(k+1) + "\ndata: "
			if !bytes.HasPrefix(f, []byte(prefix)) {
				return nil, fmt.Errorf("frame %d is not %q...: %s", k+1, prefix, clip(f))
			}
			final = f[len(prefix):]
		}
		sw.Frames = len(frames)
	}
	if err := json.Unmarshal(final, &sw.Final); err != nil {
		return nil, fmt.Errorf("final frame: %v", err)
	}
	if !sw.Final.Final {
		return nil, fmt.Errorf("last frame is not marked final")
	}
	pts := sw.Final.Points
	if len(pts) == 0 {
		return nil, fmt.Errorf("empty frontier")
	}
	for k := 1; k < len(pts); k++ {
		if !(pts[k].JCTSeconds > pts[k-1].JCTSeconds) || !(pts[k].CostUSD < pts[k-1].CostUSD) {
			return nil, fmt.Errorf("point %d (%vs, $%v) does not trade time for cost against point %d (%vs, $%v)",
				k, pts[k].JCTSeconds, pts[k].CostUSD, k-1, pts[k-1].JCTSeconds, pts[k-1].CostUSD)
		}
	}
	if reference != nil && !bytes.Equal(final, reference) {
		return nil, fmt.Errorf("final frame differs from the ?stream=0 body")
	}
	return sw, nil
}

// validateSLO checks one tenant SLO read: the row is the tenant's and
// its outcomes add up.
func validateSLO(r *request, resp *response) error {
	if err := checkHead(r, resp); err != nil {
		return err
	}
	var s struct {
		Tenant   string `json:"tenant"`
		Runs     int    `json:"runs"`
		Attained int    `json:"attained"`
		Breached int    `json:"breached"`
	}
	if err := json.Unmarshal(resp.Body, &s); err != nil {
		return fmt.Errorf("body: %v", err)
	}
	if s.Tenant != tenantName(r.Tenant) {
		return fmt.Errorf("ledger row for %q, want %q", s.Tenant, tenantName(r.Tenant))
	}
	if s.Runs != s.Attained+s.Breached {
		return fmt.Errorf("%d runs but %d attained + %d breached", s.Runs, s.Attained, s.Breached)
	}
	return nil
}

// clip shortens a body for an error message.
func clip(b []byte) string {
	if len(b) > 160 {
		return string(b[:160]) + "..."
	}
	return string(b)
}
