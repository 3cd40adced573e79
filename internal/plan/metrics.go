package plan

import (
	"time"

	"dynsched/internal/metrics"
)

// Metrics is the planner's instrument bundle: how many units ran
// fresh, were served from the cache, or failed, and the wall time of
// the fresh runs. One bundle serves every plan executed through the
// same Options wiring (dynschedd shares one across all jobs).
type Metrics struct {
	UnitsRun    *metrics.Counter
	UnitsCached *metrics.Counter
	UnitsFailed *metrics.Counter
	// UnitsDelegated counts units Options.Dispatch completed without
	// calling their run closure — executed by a remote runner. Their
	// wall time (queueing and network included) is deliberately kept
	// out of UnitSeconds, which measures runs in this process only: a
	// runner's batch controller sizes leases from its own histogram.
	UnitsDelegated *metrics.Counter
	UnitSeconds    *metrics.Histogram
}

// unitSecondsBuckets spans 1ms to ~17min: CI-scale units finish in
// milliseconds, full-length sweep units in seconds to minutes.
var unitSecondsBuckets = metrics.ExpBuckets(0.001, 2, 20)

const unitsHelp = "Plan units by outcome: run fresh here, delegated to a fleet runner, served from cache, or failed."

// NewMetrics registers the planner instruments on r (idempotent).
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		UnitsRun:       r.CounterVec("dynsched_plan_units_total", unitsHelp, "outcome").With("run"),
		UnitsCached:    r.CounterVec("dynsched_plan_units_total", unitsHelp, "outcome").With("cached"),
		UnitsFailed:    r.CounterVec("dynsched_plan_units_total", unitsHelp, "outcome").With("failed"),
		UnitsDelegated: r.CounterVec("dynsched_plan_units_total", unitsHelp, "outcome").With("delegated"),
		UnitSeconds:    r.Histogram("dynsched_plan_unit_seconds", "Wall time of freshly-executed plan units (cache hits excluded).", unitSecondsBuckets),
	}
}

// observeDelegated records one unit completed by a remote runner (or
// its failure — remote failures count like local ones).
func (m *Metrics) observeDelegated(err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.UnitsFailed.Inc()
		return
	}
	m.UnitsDelegated.Inc()
}

// observeCached records one cache-served unit.
func (m *Metrics) observeCached() {
	if m == nil {
		return
	}
	m.UnitsCached.Inc()
}

// observeRun records one freshly-executed unit and its wall time.
func (m *Metrics) observeRun(d time.Duration, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.UnitsFailed.Inc()
		return
	}
	m.UnitsRun.Inc()
	m.UnitSeconds.Observe(d.Seconds())
}
