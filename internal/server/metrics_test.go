package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"dynsched"
)

// scrapeMetrics fetches /metrics and parses the exposition document
// into series name (with labels) -> value.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		series[line[:i]] = v
	}
	return series
}

// TestServerMetricsEndpoint is the observability acceptance test: after
// a sweep job and a grid-form respelling (plan-level miss, every unit a
// cache hit), GET /metrics serves a valid exposition document whose
// cache-hit, unit-latency and engine series reflect the work done.
func TestServerMetricsEndpoint(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2, QueueDepth: 8})
	sc := sweepScenario("metrics-e2e", 2_000, 0.1, 0.2, 0.3, 0.4)

	_, first := submitScenario(t, ts, sc)
	waitForState(t, ts, first.ID, StateDone)

	// The grid respelling misses the plan-level cache but serves all 4
	// units from the per-unit cache — the memory-tier hit counter is the
	// witness that no simulation ran.
	gridForm := lineScenario("metrics-e2e", 2_000, 1)
	gridForm.Sweep.Axes = []dynsched.SweepAxis{{Axis: "lambda", Values: sc.Sweep.Values}}
	_, second := submitScenario(t, ts, gridForm)
	done := waitForState(t, ts, second.ID, StateDone)
	if done.UnitsCached != 4 {
		t.Fatalf("grid respelling counters: %+v", done)
	}

	series := scrapeMetrics(t, ts)
	if len(series) < 12 {
		t.Fatalf("metrics endpoint serves %d series, want >= 12", len(series))
	}
	if got := series[`dynsched_cache_hits_total{tier="memory"}`]; got < 4 {
		t.Errorf("memory cache hits %v, want >= 4", got)
	}
	if got := series[`dynsched_plan_units_total{outcome="run"}`]; got != 4 {
		t.Errorf("units run %v, want 4", got)
	}
	if got := series[`dynsched_plan_units_total{outcome="cached"}`]; got != 4 {
		t.Errorf("units cached %v, want 4", got)
	}
	if got := series["dynsched_plan_unit_seconds_count"]; got != 4 {
		t.Errorf("unit latency observations %v, want 4", got)
	}
	// The engine observer rides along on every fresh unit: 4 units of
	// 2000 slots each.
	if got := series["dynsched_sim_slots_total"]; got != 4*2_000 {
		t.Errorf("sim slots %v, want %d", got, 4*2_000)
	}
	// Both submissions are sweeps: a single-entry axes list normalizes
	// to sweep kind, its plan hash differing only through the spelling.
	if got := series[`dynsched_jobs_submitted_total{kind="sweep"}`]; got != 2 {
		t.Errorf("sweep submissions %v, want 2", got)
	}
	if got := series[`dynsched_jobs_finished_total{state="done"}`]; got != 2 {
		t.Errorf("finished jobs %v, want 2", got)
	}
	if got := series[`dynsched_jobs{state="done"}`]; got != 2 {
		t.Errorf("jobs-by-state gauge %v, want 2", got)
	}
	if got := series["dynsched_queue_capacity"]; got != 8 {
		t.Errorf("queue capacity %v, want 8", got)
	}
	if got := series["dynsched_workers"]; got != 2 {
		t.Errorf("workers %v, want 2", got)
	}
	if series["dynsched_sim_slot_seconds_count"] < 1 {
		t.Error("no sampled slot timings recorded")
	}

	// A single run is a one-unit plan: it counts as exactly one more
	// freshly-run unit with one more latency observation.
	_, single := submitScenario(t, ts, lineScenario("metrics-e2e-run", 2_000, 1))
	waitForState(t, ts, single.ID, StateDone)
	after := scrapeMetrics(t, ts)
	for _, name := range []string{`dynsched_plan_units_total{outcome="run"}`, "dynsched_plan_unit_seconds_count"} {
		if got, want := after[name], series[name]+1; got != want {
			t.Errorf("%s after a single run: %v, want %v", name, got, want)
		}
	}
}

// TestServerMetricsIsolated pins per-server registries: two servers in
// one process never share counters (the package has no global state).
func TestServerMetricsIsolated(t *testing.T) {
	_, ts1 := startServer(t, Config{Workers: 1, QueueDepth: 4})
	_, ts2 := startServer(t, Config{Workers: 1, QueueDepth: 4})

	_, job := submitScenario(t, ts1, lineScenario("iso", 2_000, 1))
	waitForState(t, ts1, job.ID, StateDone)

	if got := scrapeMetrics(t, ts1)["dynsched_sim_slots_total"]; got != 2_000 {
		t.Errorf("first server slots %v, want 2000", got)
	}
	if got := scrapeMetrics(t, ts2)["dynsched_sim_slots_total"]; got != 0 {
		t.Errorf("second server saw the first server's slots: %v", got)
	}
}
