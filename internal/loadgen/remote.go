// Remote-client mode: the same deterministic shape sequence, driven over
// HTTP against a running astra-server instead of an in-process planner.
// The driver measures what a tenant of the planning service would see —
// end-to-end latency split into queue wait and service time (from the
// server's timing headers), 429s absorbed by the retry loop, response
// cache verdicts — and keeps Result's shape identical to a local run so
// LOADGEN.json consumers need not care which mode produced it.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"astra/internal/api"
)

// maxRetryPause caps how long the client honors a 429's retry_after_ms
// before re-attempting; a load driver exists to apply pressure, not to
// sleep through a long refill window.
const maxRetryPause = 200 * time.Millisecond

// maxAttempts bounds the per-request 429 retry loop so a pathological
// quota (rate far below the offered load) degrades into counted errors
// instead of a livelock.
const maxAttempts = 1000

// wireRequest renders one shape as the service's wire form. The reverse
// mapping is total because profile names and wire workload names are the
// same strings.
func wireRequest(s Shape, execute bool, sloFactor float64) api.PlanRequest {
	req := api.PlanRequest{
		Workload:    s.Job.Profile.Name,
		NumObjects:  s.Job.NumObjects,
		ObjectBytes: s.Job.ObjectSize,
		Execute:     execute,
	}
	if execute && sloFactor > 0 {
		req.SLOFactor = sloFactor
	}
	if s.Objective.Deadline > 0 {
		req.Objective = api.ObjectiveSpec{Goal: "min_cost", Deadline: s.Objective.Deadline.String()}
	} else {
		req.Objective = api.ObjectiveSpec{Goal: "min_time", BudgetUSD: float64(s.Objective.Budget)}
	}
	return req
}

// remoteRequester is the remote-client mode: each request goes to
// spec.TargetURL under its worker's tenant identity.
func remoteRequester(spec Spec) requester {
	tenants := spec.Tenants
	if tenants <= 0 {
		tenants = 1
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	return func(ctx context.Context, w, si int, execute bool) (sample, error) {
		req := wireRequest(spec.Shapes[si], execute, spec.SLOFactor)
		return planRemote(ctx, client, spec.TargetURL, fmt.Sprintf("tenant-%d", w%tenants), &req)
	}
}

// planRemote POSTs one plan request, absorbing 429s by honoring (a
// capped) Retry-After and re-attempting. The sample always carries how
// many 429s were absorbed; the error is non-nil only for transport
// failures or terminal statuses.
func planRemote(ctx context.Context, client *http.Client, base, tenant string, req *api.PlanRequest) (sample, error) {
	var s sample
	body, err := json.Marshal(req)
	if err != nil {
		return s, err
	}
	t0 := time.Now()
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return s, err
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/plan", bytes.NewReader(body))
		if err != nil {
			return s, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set(api.TenantHeader, tenant)
		resp, err := client.Do(hreq)
		if err != nil {
			return s, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			var env api.ErrorResponse
			_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&env)
			resp.Body.Close()
			s.rateLimited++
			pause := time.Duration(env.RetryAfterMS) * time.Millisecond
			if pause <= 0 || pause > maxRetryPause {
				pause = maxRetryPause
			}
			select {
			case <-time.After(pause):
			case <-ctx.Done():
				return s, ctx.Err()
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			return s, fmt.Errorf("loadgen: %s: %s", resp.Status, bytes.TrimSpace(b))
		}
		var planResp api.PlanResponse
		err = json.NewDecoder(resp.Body).Decode(&planResp)
		resp.Body.Close()
		if err != nil {
			return s, err
		}
		s.total = time.Since(t0)
		s.queue = headerNs(resp.Header.Get(api.QueueHeader))
		s.service = headerNs(resp.Header.Get(api.ServiceHeader))
		s.cache = resp.Header.Get(api.CacheHeader)
		if run := planResp.Run; run != nil && req.Execute {
			s.ran, s.attained = true, run.Attained
		}
		return s, nil
	}
	return s, fmt.Errorf("loadgen: gave up after %d rate-limited attempts", maxAttempts)
}

func headerNs(v string) time.Duration {
	n, _ := strconv.ParseInt(v, 10, 64)
	return time.Duration(n)
}
