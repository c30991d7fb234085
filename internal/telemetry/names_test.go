package telemetry

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestChaosAndSpeculationNamesRoundTrip: every chaos and speculation
// metric name must be a valid Prometheus series that survives the
// exposition format round-trip with its value intact.
// MChaosThrottleRejects is the platform's one throttle series: injected
// windows are its only 429s, so no lambda-side throttle counter exists
// beside it (make books fails if one returns).
func TestChaosAndSpeculationNamesRoundTrip(t *testing.T) {
	names := []string{
		MStoreCopies,
		MChaosFaults, MChaosLambdaFaults, MChaosStoreFaults,
		MChaosStraggles, MChaosForcedColdStarts, MChaosThrottleRejects,
		MSpecLaunched, MSpecWins, MSpecLosses, MSpecCancelled, MSpecCommits,
	}
	reg := New()
	for i, n := range names {
		reg.Counter(n).Add(int64(i + 1))
	}
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}

	values := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		values[line[:sp]] = v
	}
	for i, n := range names {
		if !strings.HasPrefix(n, "astra_") || !strings.HasSuffix(n, "_total") {
			t.Errorf("%s: chaos/speculation counters must be astra_*_total", n)
		}
		if got, ok := values[n]; !ok || got != float64(i+1) {
			t.Errorf("%s: round-trip = %v (present %v), want %d", n, got, ok, i+1)
		}
	}
}

// TestFrontierAndBoundNamesRoundTrip: the frontier sweep's counters, the
// bounded search's prune and memo-hit counters and the server's panic
// counter must be valid astra_*_total series that survive the Prometheus
// round-trip.
func TestFrontierAndBoundNamesRoundTrip(t *testing.T) {
	names := []string{
		MFrontierPhases, MFrontierSearches, MFrontierPruned, MCSPBoundPrunes,
		MCSPMemoHits, MServerPanics,
	}
	reg := New()
	for i, n := range names {
		reg.Counter(n).Add(int64(i + 1))
	}
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	values := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		values[line[:sp]] = v
	}
	for i, n := range names {
		if !strings.HasPrefix(n, "astra_") || !strings.HasSuffix(n, "_total") {
			t.Errorf("%s: frontier/bound counters must be astra_*_total", n)
		}
		if got, ok := values[n]; !ok || got != float64(i+1) {
			t.Errorf("%s: round-trip = %v (present %v), want %d", n, got, ok, i+1)
		}
	}
}
