package main

import (
	"math/rand"
	"time"

	"dynsched"
	"dynsched/internal/interference"
)

// layers accumulates the per-slot layer split of one traced simulation
// run: wall time inside each component the engine calls, plus the
// counts those calls return. It is owned by the run's engine goroutine;
// concurrent runs each get their own and merge them afterwards.
type layers struct {
	injectStep   time.Duration // InjectionProcess.Step
	coreInject   time.Duration // SimProtocol.Inject
	coreSlot     time.Duration // SimProtocol.Slot (the static executor)
	coreFeedback time.Duration // SimProtocol.Feedback
	resolve      time.Duration // the model's slot resolver

	packets   int64 // packets Step returned
	tx        int64 // transmissions Slot requested
	attempts  int64 // transmissions handed to the resolver
	successes int64 // of which the resolver let through
}

func (l *layers) add(o *layers) {
	l.injectStep += o.injectStep
	l.coreInject += o.coreInject
	l.coreSlot += o.coreSlot
	l.coreFeedback += o.coreFeedback
	l.resolve += o.resolve
	l.packets += o.packets
	l.tx += o.tx
	l.attempts += o.attempts
	l.successes += o.successes
}

// tracedModel times slot resolution. It forwards the optional resolver
// extensions the engine looks for (SlotResolver, ParallelResolver,
// ResolveStatsProvider), so a traced run takes exactly the resolve path
// of an untraced one instead of falling back to Successes.
type tracedModel struct {
	dynsched.Model
	l *layers
}

var (
	_ interference.ParallelResolver     = (*tracedModel)(nil)
	_ interference.ResolveStatsProvider = (*tracedModel)(nil)
)

func (m *tracedModel) Successes(tx []int) []bool { return m.timed(m.Model.Successes)(tx) }

func (m *tracedModel) NewResolver() func(tx []int) []bool {
	return m.timed(interference.ResolveFunc(m.Model))
}

func (m *tracedModel) NewResolverN(workers int) func(tx []int) []bool {
	return m.timed(interference.ResolveFuncN(m.Model, workers))
}

// ResolveStats reports the wrapped model's counters; a model without
// them resolves serially and keeps no grid.
func (m *tracedModel) ResolveStats() interference.ResolveStats {
	if sp, ok := m.Model.(interference.ResolveStatsProvider); ok {
		return sp.ResolveStats()
	}
	return interference.ResolveStats{Workers: 1}
}

func (m *tracedModel) timed(resolve func([]int) []bool) func([]int) []bool {
	l := m.l
	return func(tx []int) []bool {
		t0 := time.Now()
		ok := resolve(tx)
		l.resolve += time.Since(t0)
		l.attempts += int64(len(tx))
		for _, s := range ok {
			if s {
				l.successes++
			}
		}
		return ok
	}
}

// tracedProcess times injection sampling.
type tracedProcess struct {
	dynsched.InjectionProcess
	l *layers
}

func (p *tracedProcess) Step(t int64, rng *rand.Rand) []dynsched.Packet {
	t0 := time.Now()
	pkts := p.InjectionProcess.Step(t, rng)
	p.l.injectStep += time.Since(t0)
	p.l.packets += int64(len(pkts))
	return pkts
}

// tracedProtocol times the dynamic protocol's three entry points.
type tracedProtocol struct {
	dynsched.SimProtocol
	l *layers
}

func (p *tracedProtocol) Inject(t int64, pkts []dynsched.Packet) {
	t0 := time.Now()
	p.SimProtocol.Inject(t, pkts)
	p.l.coreInject += time.Since(t0)
}

func (p *tracedProtocol) Slot(t int64, rng *rand.Rand) []dynsched.Transmission {
	t0 := time.Now()
	tx := p.SimProtocol.Slot(t, rng)
	p.l.coreSlot += time.Since(t0)
	p.l.tx += int64(len(tx))
	return tx
}

func (p *tracedProtocol) Feedback(t int64, tx []dynsched.Transmission, success []bool) {
	t0 := time.Now()
	p.SimProtocol.Feedback(t, tx, success)
	p.l.coreFeedback += time.Since(t0)
}

// countingSource counts the draws made from it; one Step of a
// stochastic process through it counts the process's generators, each
// of which draws once per slot.
type countingSource struct {
	rand.Source
	n int64
}

func (s *countingSource) Int63() int64 { s.n++; return s.Source.Int63() }

// generatorCount returns how many random draws one injection step
// makes. Call it on a process that will not be run afterwards.
func generatorCount(p dynsched.InjectionProcess) int64 {
	src := &countingSource{Source: rand.NewSource(1)}
	p.Step(0, rand.New(src))
	return src.n
}
