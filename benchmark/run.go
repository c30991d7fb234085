package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// One workload's loopback run: set-up (spawn, ready, warm-up), a timed
// phase driven by closed-loop clients, the quality pass, teardown, and
// the regime self-check.

// qualityRequests is how many of the sequence's first plan requests the
// quality pass compares with exact label-setting.
const qualityRequests = 32

// measuredWindows is the number of block-aligned windows the measured
// span is cut into; the ramp before them is a sixth of the timed phase.
const measuredWindows = 5

// sample is one timed request as the client saw it.
type sample struct {
	Index     int
	Kind      reqKind
	OK        bool
	Start     time.Duration // issue time since the timed phase began
	Total     time.Duration
	FirstByte time.Duration
	Queue     time.Duration
	Service   time.Duration
	Timed     bool // the response carried the server's service time
	Bytes     int
	Frames    int
	Points    int
}

// warmState is what warm-up learned and the timed phase checks against.
type warmState struct {
	// primed[cell] is resp_hit's primed body; reference[cell] is
	// frontier_stream's ?stream=0 body.
	primed    [][]byte
	reference [][]byte
}

// loopRun is everything one loopback run measured.
type loopRun struct {
	Workload workloadID
	Seed     int64
	Seconds  int

	SetupS    []float64 // one per set-up
	Samples   []sample  // every timed request, by issue order
	Attempted int
	Failed    int
	Errors    []string // the first few failures

	Span     span
	Before   *scrape // quiescent, after warm-up
	After    *scrape // quiescent, after the last timed response
	Observed []observation
	PeakRSS  float64
	Quality  float64
	Elapsed  time.Duration // timed phase, first issue to last response

	served *servedPlans
}

// observation is one reading the observer took during the timed phase.
type observation struct {
	At  time.Duration // since the timed phase began
	CPU time.Duration // server utime+stime
	// Metrics is set on the readings that also scraped /metrics.
	Metrics *scrape
}

// phase returns the length of the ramp and of the whole timed phase: the
// measured --seconds preceded by a ramp a fifth as long.
func (run *loopRun) phase() (ramp, total time.Duration) {
	measured := time.Duration(run.Seconds) * time.Second
	return measured / measuredWindows, measured + measured/measuredWindows
}

// clients is min(2, nproc): the load generator shares the host with the
// server, and a tenant's scheduler waits for its plan, so the loop is
// closed.
func clients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// loopback runs one workload against freshly spawned servers. setups is
// how many times set-up is repeated (the last server is the one timed);
// quality selects the quality pass.
func loopback(bin string, w workloadID, seed int64, seconds, setups int, quality bool) (*loopRun, error) {
	run := &loopRun{Workload: w, Seed: seed, Seconds: seconds}
	gen := newGenerator(seed, w)
	var srv *server
	var warm *warmState
	for k := 0; k < setups; k++ {
		if srv != nil {
			if _, err := srv.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(bin); err != nil {
			return nil, fmt.Errorf("start server: %w", err)
		}
		if warm, err = warmUp(srv, gen); err != nil {
			srv.kill()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		run.SetupS = append(run.SetupS, time.Since(t0).Seconds())
	}
	err := run.timed(srv, gen, warm)
	if err == nil && quality {
		run.Quality, err = qualityPass(srv, gen, warm, run)
	}
	if err != nil {
		srv.kill()
		return nil, err
	}
	if run.PeakRSS, err = srv.stop(); err != nil {
		return nil, err
	}
	if err := run.cutSpan(); err != nil {
		return nil, err
	}
	return run, nil
}

// warmUp issues the workload's serial warm-up and validates it.
func warmUp(srv *server, gen *generator) (*warmState, error) {
	c, err := dial(srv.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	warm := &warmState{}
	switch gen.workload {
	case respHit:
		warm.primed = make([][]byte, workloads[respHit].Block)
	case frontierStream:
		warm.reference = make([][]byte, workloads[frontierStream].Block)
	}
	for _, r := range gen.warmup() {
		r := r
		resp, err := c.do(&r)
		if err != nil {
			return nil, err
		}
		switch r.Kind {
		case kindPlan:
			p, err := validatePlan(&r, &resp)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", r.Path, r.Body, err)
			}
			if warm.primed != nil {
				warm.primed[r.Cell] = append([]byte(nil), resp.Body...)
			}
			gen.learn(&r, p.PredictedCostUSD)
		case kindFrontier:
			if _, err := validateFrontier(&r, &resp, false, nil); err != nil {
				return nil, fmt.Errorf("%s: %w", r.Path, err)
			}
			warm.reference[r.Cell] = append([]byte(nil), resp.Body...)
		}
	}
	if err := gen.ready(); err != nil {
		return nil, err
	}
	return warm, nil
}

// timed drives the closed-loop clients for the ramp plus the measured
// phase, with an observer reading the server's CPU time and /metrics on
// the side.
func (run *loopRun) timed(srv *server, gen *generator, warm *warmState) error {
	var err error
	if run.Before, err = srv.scrapeMetrics(); err != nil {
		return err
	}
	n := clients()
	conns := make([]*conn, n)
	for k := range conns {
		if conns[k], err = dial(srv.addr); err != nil {
			return err
		}
		defer conns[k].close()
	}
	_, phase := run.phase()
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		perConn = make([][]sample, n)
		served  = &servedPlans{}
	)
	t0 := time.Now()
	stopObserver := make(chan struct{})
	observed := make(chan []observation, 1)
	go func() { observed <- observe(srv, t0, stopObserver) }()
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := conns[k]
			samples := make([]sample, 0, 1<<14)
			for {
				if time.Since(t0) >= phase {
					break
				}
				i := int(next.Add(1)) - 1
				r := gen.request(i)
				resp, err := c.do(&r)
				s := sample{Index: i, Kind: r.Kind}
				s.Start = resp.Start.Sub(t0)
				if err == nil {
					s.Total, s.FirstByte = resp.Total, resp.FirstByte
					s.Queue, s.Service, s.Timed = time.Duration(resp.QueueNs), time.Duration(resp.ServiceNs), resp.Timed
					s.Bytes = len(resp.Body)
					err = check(&r, &resp, warm, served, &s)
				} else {
					if resp.Start.IsZero() { // the redial itself failed
						s.Start = time.Since(t0)
					}
					c.close()
				}
				s.OK = err == nil
				if err != nil {
					mu.Lock()
					if len(run.Errors) < 5 {
						run.Errors = append(run.Errors, fmt.Sprintf("request %d: %v", i, err))
					}
					mu.Unlock()
				}
				samples = append(samples, s)
			}
			perConn[k] = samples
		}(k)
	}
	wg.Wait()
	run.Elapsed = time.Since(t0)
	close(stopObserver)
	run.Observed = <-observed
	if run.After, err = srv.scrapeMetrics(); err != nil {
		return err
	}
	for _, ss := range perConn {
		run.Samples = append(run.Samples, ss...)
	}
	sort.Slice(run.Samples, func(a, b int) bool { return run.Samples[a].Index < run.Samples[b].Index })
	run.Attempted = len(run.Samples)
	for _, s := range run.Samples {
		if !s.OK {
			run.Failed++
		}
	}
	run.served = served
	return nil
}

// servedPlans keeps the objective of the sequence's first plans for the
// quality pass. Each index is written by the one client that drew it and
// read after the clients have stopped.
type servedPlans struct {
	objective [qualityRequests + 8]float64
}

// check validates one timed response and notes what the report needs
// from it.
func check(r *request, resp *response, warm *warmState, served *servedPlans, s *sample) error {
	switch r.Kind {
	case kindPlan:
		if warm.primed != nil {
			return validateReplay(r, resp, warm.primed[r.Cell])
		}
		p, err := validatePlan(r, resp)
		if err == nil && r.Index < len(served.objective) {
			served.objective[r.Index] = p.objective(r.Goal)
		}
		return err
	case kindFrontier:
		sw, err := validateFrontier(r, resp, true, warm.reference[r.Cell])
		if err == nil {
			s.Frames, s.Points = sw.Frames, len(sw.Final.Points)
		}
		return err
	default:
		return validateSLO(r, resp)
	}
}

// observe reads the server's CPU time every 20 ms — /proc counts in 10 ms
// ticks, so finer would add nothing — and scrapes /metrics once a second
// for the timeline, until stop closes.
func observe(srv *server, t0 time.Time, stop <-chan struct{}) []observation {
	var out []observation
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	nextScrape := time.Duration(0)
	for {
		at := time.Since(t0)
		if cpu, err := srv.cpuTime(); err == nil {
			o := observation{At: at, CPU: cpu}
			if at >= nextScrape {
				// A failed scrape only thins the timeline.
				o.Metrics, _ = srv.scrapeMetrics()
				nextScrape += time.Second
			}
			out = append(out, o)
		}
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
	}
}

// span is the measured part of the timed phase: whole blocks only, cut
// into windows of whole blocks, so every window serves the same mix of
// requests.
type span struct {
	FirstBlock, Blocks int
	Windows            []window
	// CPU is the server's CPU time over the whole span; it is not summed
	// from the windows because /proc's 10 ms ticks would round five times.
	CPU time.Duration
}

// window is one block-aligned slice of the measured span.
type window struct {
	Start, End time.Duration // issue times of its first request and of the next window's
	Requests   int
	Validated  int
	CPU        time.Duration
	HeapMB     float64
	GCCycles   float64
	latencies  []time.Duration // validated requests only, sorted
}

func (w *window) rps() float64 { return float64(w.Validated) / (w.End - w.Start).Seconds() }

// latencyMs is a percentile of the window's validated latencies.
func (w *window) latencyMs(q float64) float64 {
	ms := make([]float64, len(w.latencies))
	for i, d := range w.latencies {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return quantile(ms, q)
}

// cpuMsPerReq is the server CPU time the window's validated requests cost.
func (w *window) cpuMsPerReq() float64 {
	return ratio(float64(w.CPU)/float64(time.Millisecond), float64(w.Validated))
}

// windowRates lists the span's window throughputs.
func (run *loopRun) windowRates() []float64 {
	var rps []float64
	for k := range run.Span.Windows {
		rps = append(rps, run.Span.Windows[k].rps())
	}
	return rps
}

// cutSpan finds the whole blocks issued after the ramp and cuts them into
// windows.
func (run *loopRun) cutSpan() error {
	block := workloads[run.Workload].Block
	rampEnd, _ := run.phase()
	// Samples are sorted by index and indices are dense, so sample b*block
	// is block b's first request.
	starts := func(b int) time.Duration { return run.Samples[b*block].Start }
	issued := (len(run.Samples) - 1) / block // blocks whose successor's first request was issued
	first := 0
	for first < issued && starts(first) < rampEnd {
		first++
	}
	n := issued - first
	if n < 1 {
		return fmt.Errorf("%d requests in %v complete no whole block of %d after the ramp",
			len(run.Samples), run.Elapsed.Round(time.Millisecond), block)
	}
	windows := measuredWindows
	if n < windows {
		windows = n
	}
	// Windows hold whole blocks, as evenly as n divides: sizes differ by at
	// most one block, and a window's numbers are rates and percentiles, so
	// an extra block adds samples without changing what is measured.
	sp := span{FirstBlock: first, Blocks: n}
	for k := 0; k < windows; k++ {
		b0, b1 := first+k*n/windows, first+(k+1)*n/windows
		w := window{Start: starts(b0), End: starts(b1), Requests: (b1 - b0) * block}
		for _, s := range run.Samples[b0*block : b1*block] {
			if s.OK {
				w.Validated++
				w.latencies = append(w.latencies, s.Total)
			}
		}
		sort.Slice(w.latencies, func(a, b int) bool { return w.latencies[a] < w.latencies[b] })
		w.CPU = run.cpuAt(w.End) - run.cpuAt(w.Start)
		if sc := run.scrapeAt(w.End); sc != nil {
			w.HeapMB = sc.get("astra_go_heap_objects_bytes") / (1 << 20)
			if sc0 := run.scrapeAt(w.Start); sc0 != nil {
				w.GCCycles = sc.get("astra_go_gc_cycles") - sc0.get("astra_go_gc_cycles")
			}
		}
		sp.Windows = append(sp.Windows, w)
	}
	sp.CPU = run.cpuAt(sp.Windows[windows-1].End) - run.cpuAt(sp.Windows[0].Start)
	run.Span = sp
	return nil
}

// cpuAt interpolates the server's CPU time at an instant of the timed
// phase from the observer's readings.
func (run *loopRun) cpuAt(at time.Duration) time.Duration {
	obs := run.Observed
	k := sort.Search(len(obs), func(k int) bool { return obs[k].At >= at })
	switch {
	case len(obs) == 0:
		return 0
	case k == 0:
		return obs[0].CPU
	case k == len(obs):
		return obs[len(obs)-1].CPU
	}
	a, b := obs[k-1], obs[k]
	frac := float64(at-a.At) / float64(b.At-a.At)
	return a.CPU + time.Duration(frac*float64(b.CPU-a.CPU))
}

// scrapeAt returns the observer's last /metrics scrape at or before an
// instant (the first one when none is earlier).
func (run *loopRun) scrapeAt(at time.Duration) *scrape {
	var best *scrape
	for _, o := range run.Observed {
		if o.Metrics == nil {
			continue
		}
		if best != nil && o.At > at {
			break
		}
		best = o.Metrics
	}
	return best
}

// spanSamples returns the validated samples of the measured span.
func (run *loopRun) spanSamples() []sample {
	block := workloads[run.Workload].Block
	lo, hi := run.Span.FirstBlock*block, (run.Span.FirstBlock+run.Span.Blocks)*block
	out := make([]sample, 0, hi-lo)
	for _, s := range run.Samples[lo:hi] {
		if s.OK {
			out = append(out, s)
		}
	}
	return out
}

// qualityPass computes quality_ratio: the geometric mean, over the
// sequence's first plan requests, of the served plan's exact-model
// objective over the objective of the same request solved by exact
// label-setting. It runs untimed, after the last timed response.
func qualityPass(srv *server, gen *generator, warm *warmState, run *loopRun) (float64, error) {
	c, err := dial(srv.addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	// exact plans r with label-setting; a 422 (no plan meets the
	// constraint under the paper model) returns nil, nil.
	exact := func(r *request) (*planResponse, error) {
		resp, err := c.do(r)
		if err != nil {
			return nil, err
		}
		if resp.Status == 422 {
			return nil, nil
		}
		p, err := validatePlan(r, &resp)
		if err != nil {
			return nil, fmt.Errorf("quality pass: %s: %w", r.Body, err)
		}
		return p, nil
	}
	var ratios []float64
	if gen.workload == frontierStream {
		// Four sweeps, six evenly spaced points of each final frontier:
		// the point's cost over the cost of the exact min_cost plan whose
		// deadline is the point's JCT. The DAG is weighted with the paper
		// model, which can put a point's JCT above the exact model's, so
		// label-setting may find no plan at all at a fast point's
		// deadline; the comparison then moves to the next slower point.
		for cell := 0; cell < len(warm.reference); cell += 2 {
			var fu frontierUpdate
			if err := json.Unmarshal(warm.reference[cell], &fu); err != nil {
				return 0, err
			}
			const picks = 6
			for k := 0; k < picks; k++ {
				var pt, ref float64
				for j := k * (len(fu.Points) - 1) / (picks - 1); j < len(fu.Points) && ref == 0; j++ {
					r := request{Shape: midShapes[cell], Goal: minCost,
						DeadlineNs: int64(math.Ceil(fu.Points[j].JCTSeconds * 1e9))}
					r.plan("csp")
					p, err := exact(&r)
					if err != nil {
						return 0, err
					}
					if p != nil {
						pt, ref = fu.Points[j].CostUSD, p.PredictedCostUSD
					}
				}
				if ref == 0 {
					return 0, fmt.Errorf("quality pass: no feasible deadline on the frontier of %v", midShapes[cell])
				}
				ratios = append(ratios, pt/ref)
			}
		}
		return geomean(ratios), nil
	}
	for i := 0; len(ratios) < qualityRequests && i < len(run.served.objective); i++ {
		if i >= len(run.Samples) || !run.Samples[i].OK {
			return 0, errors.New("quality pass: the timed phase did not serve the sequence's first requests")
		}
		r := gen.exact(i)
		if r.Kind != kindPlan {
			continue
		}
		served := run.served.objective[i]
		if warm.primed != nil {
			var p planResponse
			if err := json.Unmarshal(warm.primed[r.Cell], &p); err != nil {
				return 0, err
			}
			served = p.objective(r.Goal)
		}
		p, err := exact(&r)
		if err != nil {
			return 0, err
		}
		if p == nil {
			return 0, fmt.Errorf("quality pass: label-setting finds no plan for served request %s", r.Body)
		}
		ratios = append(ratios, served/p.objective(r.Goal))
	}
	return geomean(ratios), nil
}

// geomean is the geometric mean; the ratios are sorted first so the sum
// does not depend on the order the seed put the requests in.
func geomean(ratios []float64) float64 {
	sort.Float64s(ratios)
	var sum float64
	for _, r := range ratios {
		sum += math.Log(r)
	}
	return math.Exp(sum / float64(len(ratios)))
}
