package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"dynsched"
)

// grid4kSetups is how many fresh compilations set-up times; setup_s is
// their median.
const grid4kSetups = 5

// grid4kSpec is the registered sinr-grid-4k scenario with its
// simulation seed — arrivals and the protocol's random choices — drawn
// from seed. The link placement stays the registered one: a different
// placement changes the work per slot by up to a fifth, more than the
// benchmark's bounds.
func grid4kSpec(seed int64) (dynsched.Scenario, error) {
	sc, ok := dynsched.ScenarioByName("sinr-grid-4k")
	if !ok {
		return sc, fmt.Errorf("scenario sinr-grid-4k is not registered")
	}
	sc.Sim.Seed = dynsched.SubSeed(seed, 0)
	return sc, nil
}

// checkRun applies the per-run output checks: the protocol never asked
// for an impossible transmission, and every injected packet is either
// delivered or still queued.
func checkRun(res *dynsched.SimResult) error {
	if res.ProtocolErrors != 0 {
		return fmt.Errorf("%d protocol errors", res.ProtocolErrors)
	}
	if res.Injected != res.Delivered+res.InFlight {
		return fmt.Errorf("injected %d != delivered %d + in flight %d", res.Injected, res.Delivered, res.InFlight)
	}
	return nil
}

// grid4kRun is one measured job: a fresh compilation and one run.
type grid4kRun struct {
	wall    time.Duration // compile + run
	compile time.Duration
	run     time.Duration // the run alone
	l       layers
	stats   [2]uint64 // grid rebuilds, delta updates
	doc     []byte
}

// runGrid4kOnce compiles the spec and runs it, through the tracing
// wrappers when traced.
func runGrid4kOnce(ctx context.Context, sc dynsched.Scenario, traced bool) (*grid4kRun, error) {
	out := &grid4kRun{}
	t0 := time.Now()
	c, err := sc.Compile()
	if err != nil {
		return nil, err
	}
	out.compile = time.Since(t0)
	var res *dynsched.SimResult
	t1 := time.Now()
	if traced {
		m := &tracedModel{Model: c.Model, l: &out.l}
		res, err = dynsched.SimulateContext(ctx, c.Config, m,
			&tracedProcess{InjectionProcess: c.Process, l: &out.l},
			&tracedProtocol{SimProtocol: c.Protocol, l: &out.l},
			c.Observers...)
		st := m.ResolveStats()
		out.stats = [2]uint64{st.GridRebuilds, st.GridDeltaUpdates}
	} else {
		res, err = c.Run(ctx)
	}
	out.run = time.Since(t1)
	out.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if err := checkRun(res); err != nil {
		return nil, err
	}
	if out.doc, err = json.Marshal(res); err != nil {
		return nil, err
	}
	return out, nil
}

func runGrid4k(ctx context.Context, o runOpts) (*report, error) {
	sc, err := grid4kSpec(o.seed)
	if err != nil {
		return nil, err
	}
	r := newReport()
	setup := make([]float64, 0, grid4kSetups)
	var gens int64
	for i := 0; i < grid4kSetups; i++ {
		t0 := time.Now()
		c, err := sc.Compile()
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		gens = generatorCount(c.Process)
	}

	// Every run of the spec, traced or not, must produce the same
	// document as the first.
	var ref []byte
	job := func(p *phase, traced bool) *grid4kRun {
		run, err := runGrid4kOnce(ctx, sc, traced)
		if err == nil {
			if ref == nil {
				ref = run.doc
			} else if !bytes.Equal(run.doc, ref) {
				err = fmt.Errorf("run result differs from the first run's (traced=%v)", traced)
			}
		}
		r.op(err)
		if err != nil {
			return nil
		}
		run.doc = nil
		p.job(run.wall)
		p.cycle(run.wall)
		return run
	}
	loop := func(d time.Duration, traced bool) (*phase, []*grid4kRun) {
		p := startPhase(1, cycleWork{1, 1, sc.Sim.Slots})
		var runs []*grid4kRun
		for i := 0; i == 0 || time.Since(p.start) < d; i++ {
			if run := job(p, traced); run != nil {
				runs = append(runs, run)
			}
		}
		p.end()
		return p, runs
	}

	if !o.trace {
		p, _ := loop(o.seconds, false)
		p.endToEnd(r, setup)
		return r, nil
	}

	pu, untraced := loop(o.seconds/2, false)
	pt, traced := loop(o.seconds/2, true)
	zeroLayers(r)
	pt.runtimeLayer(r)
	n := float64(len(traced))
	var l layers
	var runS, compileS, rebuilds, deltas float64
	for _, t := range traced {
		l.add(&t.l)
		runS += t.run.Seconds()
		compileS += t.compile.Seconds()
		rebuilds += float64(t.stats[0])
		deltas += float64(t.stats[1])
	}
	layered := l.injectStep + l.coreInject + l.coreSlot + l.coreFeedback + l.resolve
	r.metrics["inject.step_s"] = l.injectStep.Seconds() / n
	r.metrics["inject.packets"] = float64(l.packets) / n
	r.metrics["inject.ns_per_gen_slot"] = ratio(float64(l.injectStep.Nanoseconds()), float64(gens)*n*float64(sc.Sim.Slots))
	r.metrics["core.slot_s"] = l.coreSlot.Seconds() / n
	r.metrics["core.inject_s"] = l.coreInject.Seconds() / n
	r.metrics["core.feedback_s"] = l.coreFeedback.Seconds() / n
	r.metrics["core.tx"] = float64(l.tx) / n
	r.metrics["interference.resolve_s"] = l.resolve.Seconds() / n
	r.metrics["interference.success_ratio"] = ratio(float64(l.successes), float64(l.attempts))
	r.metrics["geom.grid_rebuilds"] = rebuilds / n
	r.metrics["geom.grid_delta_updates"] = deltas / n
	r.metrics["sim.self_s"] = (runS - layered.Seconds()) / n
	r.metrics["cli.compile_s"] = compileS / n
	r.metrics["trace.overhead_ratio"] = ratio(median(pt.latMs), median(pu.latMs))
	if len(untraced) == 0 {
		r.problem("no untraced run to compare the traced runs with")
	}
	return r, nil
}
