package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dynsched"
)

const (
	sweepUnits = 64
	sweepSlots = 500 // per unit
	// sweep64Setups is how many fresh plans set-up times; a plan builds
	// in well under a millisecond, so many samples steady the median.
	sweep64Setups = 101
	// identityChecks caps how many plans per phase keep a digest for the
	// traced-versus-untraced comparison.
	identityChecks = 32
)

// sweep64Spec is the BenchmarkPlanSweep64 scenario: a 6-node line under
// the identity model with full-parallel scheduling, 500 slots per unit,
// swept over 64 λ values.
func sweep64Spec(seed int64) dynsched.Scenario {
	sc := dynsched.NewScenario("bench-plan-sweep",
		dynsched.WithModel("identity"), dynsched.WithTopology("line"), dynsched.WithNodes(6), dynsched.WithHops(5),
		dynsched.WithAlgorithm("full-parallel"), dynsched.WithSlots(sweepSlots), dynsched.WithSeed(seed))
	values := make([]float64, sweepUnits)
	for i := range values {
		values[i] = 0.1 + 0.005*float64(i)
	}
	sc.Sweep = dynsched.SweepSpec{Axis: "lambda", Values: values}
	return sc
}

// checkPlan applies the plan-level output checks to a sweep result.
func checkPlan(pr *dynsched.PlanResult) error {
	if pr.UnitsDone != sweepUnits || len(pr.Points) != sweepUnits {
		return fmt.Errorf("plan completed %d of %d units", pr.UnitsDone, sweepUnits)
	}
	for _, pt := range pr.Points {
		if err := checkRun(pt.Result); err != nil {
			return fmt.Errorf("sweep point λ=%v: %w", pt.Value, err)
		}
	}
	return nil
}

// unitTrace is one plan unit's traced timeline.
type unitTrace struct {
	start, runStart, end time.Time
	compile              time.Duration
	l                    layers
}

// planTrace collects the unit traces of one traced plan execution.
type planTrace struct {
	mu          sync.Mutex
	units       map[int]*unitTrace
	lastStore   time.Time // when the last unit result reached Store
	built, done time.Time // Plan returned, Execute returned
}

// options returns ExecOptions that compile each unit themselves, timing
// the compilation, and hand the plan wrapped components to run.
func (pt *planTrace) options() dynsched.ExecOptions {
	return dynsched.ExecOptions{
		Compiled: func(u dynsched.PlanUnit) *dynsched.CompiledScenario {
			ut := &unitTrace{start: time.Now()}
			c, err := u.Scenario.Compile()
			if err != nil {
				return nil // the plan compiles again and reports the error
			}
			ut.compile = time.Since(ut.start)
			c.Model = &tracedModel{Model: c.Model, l: &ut.l}
			c.Process = &tracedProcess{InjectionProcess: c.Process, l: &ut.l}
			pt.mu.Lock()
			pt.units[u.Index] = ut
			pt.mu.Unlock()
			ut.runStart = time.Now()
			return c
		},
		Store: func(u dynsched.PlanUnit, _ *dynsched.SimResult) {
			now := time.Now()
			pt.mu.Lock()
			if ut := pt.units[u.Index]; ut != nil {
				ut.end = now
			}
			pt.lastStore = now
			pt.mu.Unlock()
		},
	}
}

func runSweep64(ctx context.Context, o runOpts) (*report, error) {
	r := newReport()
	setup := make([]float64, 0, sweep64Setups)
	for i := 0; i < sweep64Setups; i++ {
		sc := sweep64Spec(dynsched.SubSeed(o.seed, -1-i))
		t0 := time.Now()
		if _, err := sc.Plan(1); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	probe, err := sweep64Spec(o.seed).Compile()
	if err != nil {
		return nil, err
	}
	gens := generatorCount(probe.Process)

	// Plan i of either phase runs seed SubSeed(seed, i), so the two
	// phases' first plans must match byte for byte.
	digests := map[int][32]byte{}
	var traces []*planTrace
	var buildS []float64
	loop := func(d time.Duration, traced bool) *phase {
		p := startPhase(1, cycleWork{1, sweepUnits, sweepUnits * sweepSlots})
		for i := 0; i == 0 || time.Since(p.start) < d; i++ {
			sc := sweep64Spec(dynsched.SubSeed(o.seed, i))
			t0 := time.Now()
			plan, err := sc.Plan(1)
			if err != nil {
				r.op(err)
				continue
			}
			built := time.Now()
			var opts dynsched.ExecOptions
			var pt *planTrace
			if traced {
				pt = &planTrace{units: map[int]*unitTrace{}}
				opts = pt.options()
			}
			pr, err := plan.Execute(ctx, opts)
			done := time.Now()
			if err == nil {
				err = checkPlan(pr)
			}
			if err == nil && o.trace && i < identityChecks {
				err = sameDigest(digests, i, pr, traced)
			}
			r.op(err)
			if err != nil {
				continue
			}
			p.job(done.Sub(t0))
			p.cycle(done.Sub(t0))
			if traced {
				pt.built, pt.done = built, done
				traces = append(traces, pt)
				buildS = append(buildS, built.Sub(t0).Seconds())
			}
		}
		p.end()
		return p
	}

	if !o.trace {
		loop(o.seconds, false).endToEnd(r, setup)
		return r, nil
	}
	pu := loop(o.seconds/2, false)
	pt := loop(o.seconds/2, true)
	zeroLayers(r)
	pt.runtimeLayer(r)
	n := float64(len(traces))
	var l layers
	var unitMs []float64
	var runS, compileS, busyS, execS, aggS float64
	for _, tr := range traces {
		for _, ut := range tr.units {
			l.add(&ut.l)
			unitMs = append(unitMs, ms(ut.end.Sub(ut.start)))
			busyS += ut.end.Sub(ut.start).Seconds()
			runS += ut.end.Sub(ut.runStart).Seconds()
			compileS += ut.compile.Seconds()
		}
		execS += tr.done.Sub(tr.built).Seconds()
		aggS += tr.done.Sub(tr.lastStore).Seconds()
	}
	layered := l.injectStep + l.resolve
	par := float64(runtime.GOMAXPROCS(0))
	r.metrics["inject.step_s"] = l.injectStep.Seconds() / n
	r.metrics["inject.packets"] = float64(l.packets) / n
	r.metrics["inject.ns_per_gen_slot"] = ratio(float64(l.injectStep.Nanoseconds()), float64(gens)*n*sweepUnits*sweepSlots)
	r.metrics["interference.resolve_s"] = l.resolve.Seconds() / n
	r.metrics["interference.success_ratio"] = ratio(float64(l.successes), float64(l.attempts))
	r.metrics["sim.self_s"] = (runS - layered.Seconds()) / n
	r.metrics["cli.compile_s"] = compileS / n
	r.metrics["plan.build_s"] = mean(buildS)
	r.metrics["plan.unit_p50_ms"] = quantile(unitMs, 0.5)
	r.metrics["plan.unit_p99_ms"] = quantile(unitMs, 0.99)
	r.metrics["plan.unit_busy_s"] = busyS / n
	r.metrics["plan.idle_s"] = (par*execS - busyS) / n
	r.metrics["plan.aggregate_s"] = aggS / n
	r.metrics["trace.overhead_ratio"] = ratio(median(pt.latMs), median(pu.latMs))
	return r, nil
}

// sameDigest records the first phase's result digest for plan i and
// checks the other phase's against it.
func sameDigest(digests map[int][32]byte, i int, pr *dynsched.PlanResult, traced bool) error {
	data, err := json.Marshal(pr)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	if !traced {
		digests[i] = sum
		return nil
	}
	if want, ok := digests[i]; ok && want != sum {
		return fmt.Errorf("traced plan %d differs from its untraced run", i)
	}
	return nil
}
