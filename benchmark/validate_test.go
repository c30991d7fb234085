package main

import (
	"strings"
	"testing"
)

const cannedPlan = `{"config":{"MapperMemMB":1792,"CoordMemMB":1792,"ReducerMemMB":1792,"ObjsPerMapper":3,"ObjsPerReducer":1},` +
	`"predicted_jct_seconds":42.5,"predicted_cost_usd":0.0125,"solver":"algorithm1+csp",` +
	`"search":{"calibration_rounds":0,"cache_hits":0,"cache_misses":2,"dag_builds":0},"explain":"execution plan\n"}`

const cannedRun = `,"run":{"measured_jct_seconds":42.50000001,"measured_cost_usd":0.0125,"deadline_seconds":44.6,"attained":true}}`

func ok(body, cache string) *response {
	return &response{Status: 200, Cache: cache, Body: []byte(body)}
}

func TestValidatePlan(t *testing.T) {
	executed := strings.TrimSuffix(cannedPlan, "}") + cannedRun
	cases := []struct {
		name string
		req  request
		resp *response
		want string // substring of the error; "" for valid
	}{
		{"budget met", request{Goal: minTime, BudgetUSD: 0.0125, WantCache: "miss"}, ok(cannedPlan, "miss"), ""},
		{"over budget", request{Goal: minTime, BudgetUSD: 0.0124}, ok(cannedPlan, "miss"), "over budget"},
		{"deadline met", request{Goal: minCost, DeadlineNs: 42_500_000_000}, ok(cannedPlan, "miss"), ""},
		{"past deadline", request{Goal: minCost, DeadlineNs: 42_499_999_999}, ok(cannedPlan, "miss"), "past deadline"},
		{"wrong cache verdict", request{Goal: minTime, BudgetUSD: 1, WantCache: "miss"}, ok(cannedPlan, "hit"), "X-Astra-Cache"},
		{"any cache verdict", request{Goal: minTime, BudgetUSD: 1}, ok(cannedPlan, "hit"), ""},
		{"status", request{Goal: minTime, BudgetUSD: 1}, &response{Status: 429, Body: []byte(`{"error":"over quota"}`)}, "status 429"},
		{"not json", request{Goal: minTime, BudgetUSD: 1}, ok("<html>", ""), "body"},
		{"no config", request{Goal: minTime, BudgetUSD: 1}, ok(`{"predicted_jct_seconds":1,"predicted_cost_usd":1,"solver":"x"}`, ""), "unusable config"},
		{"executed and attained", request{Goal: minTime, BudgetUSD: 1, Execute: true, WantCache: "bypass"}, ok(executed, "bypass"), ""},
		{"executed without run", request{Goal: minTime, BudgetUSD: 1, Execute: true}, ok(cannedPlan, "bypass"), "no run section"},
		{"run missed", request{Goal: minTime, BudgetUSD: 1, Execute: true},
			ok(strings.Replace(executed, `"attained":true`, `"attained":false`, 1), "bypass"), "missed its SLO"},
		{"measured JCT off by 2us", request{Goal: minTime, BudgetUSD: 1, Execute: true},
			ok(strings.Replace(executed, "42.50000001", "42.500002", 1), "bypass"), "is not the predicted"},
		{"run on a planned-only request", request{Goal: minTime, BudgetUSD: 1}, ok(executed, "miss"), "has a run section"},
	}
	for _, c := range cases {
		p, err := validatePlan(&c.req, c.resp)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want == "" && p.objective(minTime) != 42.5, c.want == "" && p.objective(minCost) != 0.0125:
			t.Errorf("%s: objectives %v / %v", c.name, p.objective(minTime), p.objective(minCost))
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func TestValidateReplay(t *testing.T) {
	r := request{WantCache: "hit"}
	if err := validateReplay(&r, ok(cannedPlan, "hit"), []byte(cannedPlan)); err != nil {
		t.Error(err)
	}
	if err := validateReplay(&r, ok(cannedPlan, "miss"), []byte(cannedPlan)); err == nil {
		t.Error("a miss passed as a replay")
	}
	if err := validateReplay(&r, ok(cannedPlan+" ", "hit"), []byte(cannedPlan)); err == nil {
		t.Error("a different body passed as a replay")
	}
}

const (
	framePartial = `{"phase":1,"final":false,"points":[{"jct_seconds":10,"cost_usd":3,"config":{}},{"jct_seconds":30,"cost_usd":1,"config":{}}],"stats":{}}`
	frameFinal   = `{"phase":2,"final":true,"points":[{"jct_seconds":10,"cost_usd":3,"config":{}},{"jct_seconds":20,"cost_usd":2,"config":{}},{"jct_seconds":30,"cost_usd":1,"config":{}}],"stats":{}}`
)

func sse(frames ...string) string {
	var b strings.Builder
	for k, f := range frames {
		b.WriteString("id: " + string(rune('1'+k)) + "\ndata: " + f + "\n\n")
	}
	return b.String()
}

func TestValidateFrontier(t *testing.T) {
	dominated := strings.Replace(frameFinal, `"jct_seconds":20,"cost_usd":2`, `"jct_seconds":20,"cost_usd":3.5`, 1)
	unsorted := strings.Replace(frameFinal, `"jct_seconds":20`, `"jct_seconds":5`, 1)
	cases := []struct {
		name   string
		body   string
		stream bool
		ref    string
		want   string
	}{
		{"stream equal to ?stream=0", sse(framePartial, frameFinal), true, frameFinal, ""},
		{"stream without reference", sse(framePartial, frameFinal), true, "", ""},
		{"plain body", frameFinal, false, "", ""},
		{"final frame differs from ?stream=0", sse(framePartial, frameFinal), true, dominated, "differs from the ?stream=0 body"},
		{"last frame not final", sse(framePartial), true, "", "not marked final"},
		{"dominated point", sse(dominated), true, "", "does not trade time for cost"},
		{"not fastest first", sse(unsorted), true, "", "does not trade time for cost"},
		{"frame ids out of order", "id: 2\ndata: " + frameFinal + "\n\n", true, "", "frame 1"},
		{"empty frontier", `{"final":true,"points":[]}`, false, "", "empty frontier"},
	}
	for _, c := range cases {
		var ref []byte
		if c.ref != "" {
			ref = []byte(c.ref)
		}
		sw, err := validateFrontier(&request{}, ok(c.body, ""), c.stream, ref)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want == "" && len(sw.Final.Points) != 3:
			t.Errorf("%s: %d final points, want 3", c.name, len(sw.Final.Points))
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
	if sw, err := validateFrontier(&request{}, ok(sse(framePartial, frameFinal), ""), true, nil); err != nil || sw.Frames != 2 {
		t.Errorf("frames = %v, %v; want 2", sw, err)
	}
	if _, err := validateFrontier(&request{WantCache: "miss"}, ok(frameFinal, "hit"), false, nil); err == nil {
		t.Error("wrong cache verdict passed")
	}
}

func TestValidateSLO(t *testing.T) {
	r := request{Tenant: 3}
	if err := validateSLO(&r, ok(`{"tenant":"t3","runs":5,"attained":5,"breached":0,"entries":[]}`, "")); err != nil {
		t.Error(err)
	}
	if err := validateSLO(&r, ok(`{"tenant":"t4","runs":0,"attained":0,"breached":0}`, "")); err == nil {
		t.Error("another tenant's row passed")
	}
	if err := validateSLO(&r, ok(`{"tenant":"t3","runs":5,"attained":3,"breached":1}`, "")); err == nil {
		t.Error("outcomes that do not add up passed")
	}
}
