package static

import (
	"math"
	"math/rand"

	"dynsched/internal/interference"
)

// Spread is a delay-spreading algorithm in the style of Fanghänel,
// Kesselheim and Vöcking [21], the O(I + log²n) algorithm the paper uses
// for linear power assignments (Corollary 12). It proceeds in geometric
// rounds: round i spans ⌈c·I/2^i⌉ slots, every pending request picks one
// of them uniformly at random and transmits exactly then. The expected
// per-slot interference inside a round is a small constant, so a
// constant fraction of requests succeeds per round and the residual
// measure halves. Once the residual measure is constant, a decay-style
// tail finishes the stragglers in O(log n) slots. The total length is
// O(I + log n·log I) — linear in I with a poly-logarithmic tail, which
// is the contract the dynamic transformation needs.
type Spread struct {
	// SlotsPerUnit is the constant c: round i has ⌈c·I/2^i⌉ slots.
	// Larger values give sparser rounds (higher per-attempt success,
	// longer schedules). 0 means the default of 4.
	SlotsPerUnit float64
	// MeasureBound, when positive, seeds the round schedule with this
	// declared bound instead of measuring the request set — the
	// distributed mode where nodes know only the provisioned J.
	MeasureBound float64
}

var (
	_ MeasureBounded = Spread{}
	_ Recycler       = Spread{}
)

// WithMeasureBound implements MeasureBounded.
func (s Spread) WithMeasureBound(meas float64) Algorithm {
	s.MeasureBound = meas
	return s
}

// Name implements Algorithm.
func (Spread) Name() string { return "spread" }

func (s Spread) slotsPerUnit() float64 {
	if s.SlotsPerUnit <= 0 {
		return 4
	}
	return s.SlotsPerUnit
}

// Budget implements Algorithm: the geometric rounds sum to at most
// 2c·I + rounds, and the tail is O(log n).
func (s Spread) Budget(numLinks int, meas float64, n int) int {
	if n == 0 {
		return 1
	}
	if meas < 1 {
		meas = 1
	}
	c := s.slotsPerUnit()
	rounds := math.Ceil(math.Log2(meas)) + 1
	tail := 48*math.Log(float64(n)+3) + 32
	return int(math.Ceil(2*c*meas+c*rounds)) + int(math.Ceil(tail))
}

// NewExecution implements Algorithm.
func (s Spread) NewExecution(m interference.Model, reqs []Request) Execution {
	meas := s.MeasureBound
	if meas <= 0 {
		meas = RequestMeasure(m, reqs)
	}
	e := &spreadExec{
		model:     m,
		reqs:      reqs,
		pending:   newPendingSet(m.NumLinks(), reqs),
		c:         s.slotsPerUnit(),
		roundMeas: meas,
		delays:    make([]int32, len(reqs)),
	}
	return e
}

// RecycleExecution implements Recycler.
func (s Spread) RecycleExecution(prev Execution, m interference.Model, reqs []Request) Execution {
	e, ok := prev.(*spreadExec)
	if !ok || e == nil {
		return s.NewExecution(m, reqs)
	}
	meas := s.MeasureBound
	if meas <= 0 {
		meas = RequestMeasure(m, reqs)
	}
	e.model, e.reqs = m, reqs
	e.pending.reset(m.NumLinks(), reqs)
	e.c = s.slotsPerUnit()
	e.roundMeas, e.roundLen, e.slot = meas, 0, 0
	e.delays = resizeInts(e.delays, len(reqs))
	e.inTail, e.tailP = false, 0
	return e
}

// spreadExec runs one Spread instance. Each round draws every pending
// request's slot up front and counting-sorts the requests into a
// calendar, so a slot touches only the requests due in it.
type spreadExec struct {
	model   interference.Model
	reqs    []Request
	pending *pendingSet
	c       float64

	roundMeas float64 // target residual measure of the current round
	roundLen  int     // slots in the current round, 0 before assignment
	slot      int     // next slot offset within the current round
	inTail    bool
	tailP     float64

	// The round's calendar: delays[idx] is request idx's drawn slot, and
	// cal[calStart[s]:calStart[s+1]] lists the requests due at slot s in
	// link order. int32 holds delays and calendar to 8 bytes per request.
	delays   []int32
	calStart []int32
	cal      []int32

	// out and perm are Attempts scratch, reused across slots.
	out  []int
	perm []int
}

func (e *spreadExec) Done() bool     { return e.pending.pending == 0 }
func (e *spreadExec) Remaining() int { return e.pending.pending }

// startRound assigns fresh uniform delays to all pending requests, or
// switches to the tail phase once the target measure is constant.
func (e *spreadExec) startRound(rng *rand.Rand) {
	const tailMeasure = 2
	if e.roundMeas <= tailMeasure {
		e.inTail = true
		e.tailP = 1.0 / 8
		return
	}
	e.roundLen = int(math.Ceil(e.c * e.roundMeas))
	e.slot = 0
	// One draw per pending request, links in order and each link's
	// requests in byLink order: the order is part of the random stream
	// that every result depends on.
	start := resizeInts(e.calStart, e.roundLen+1)
	clear(start)
	for _, onLink := range e.pending.byLink {
		for _, idx := range onLink {
			d := int32(rng.Intn(e.roundLen))
			e.delays[idx] = d
			start[d+1]++
		}
	}
	for s := 1; s <= e.roundLen; s++ {
		start[s] += start[s-1]
	}
	// Stable placement in the same order leaves every bucket in link
	// order; start[s] advances from the begin to the end of bucket s,
	// and the shift below restores the begins.
	cal := resizeInts(e.cal, e.pending.pending)
	for _, onLink := range e.pending.byLink {
		for _, idx := range onLink {
			d := e.delays[idx]
			cal[start[d]] = int32(idx)
			start[d]++
		}
	}
	copy(start[1:], start[:e.roundLen])
	start[0] = 0
	e.calStart, e.cal = start, cal
}

func (e *spreadExec) Attempts(rng *rand.Rand) []int {
	if e.pending.pending == 0 {
		return nil
	}
	if !e.inTail && e.slot >= e.roundLen {
		// Round exhausted (or never started): halve the target and restart.
		if e.roundLen > 0 {
			e.roundMeas /= 2
		}
		e.startRound(rng)
	}
	if e.inTail {
		return e.tailAttempts(rng)
	}
	p := e.pending
	due := e.cal[e.calStart[e.slot]:e.calStart[e.slot+1]]
	out := e.out[:0]
	for i := 0; i < len(due); {
		// One run of due requests per link. Emit its two pending
		// requests of smallest current position, in that order: the
		// link's byLink order, which swap-removes permute mid-round.
		// Two are enough to register the collision.
		link := p.links[due[i]]
		first, second := -1, -1
		for ; i < len(due) && p.links[due[i]] == link; i++ {
			idx := int(due[i])
			at := p.pos[idx]
			switch {
			case at < 0: // served earlier in the round
			case first < 0 || at < p.pos[first]:
				first, second = idx, first
			case second < 0 || at < p.pos[second]:
				second = idx
			}
		}
		if first >= 0 {
			out = append(out, first)
		}
		if second >= 0 {
			out = append(out, second)
		}
	}
	e.out = out
	e.slot++
	return out
}

func (e *spreadExec) tailAttempts(rng *rand.Rand) []int {
	out := e.out[:0]
	for link := range e.pending.byLink {
		r := e.pending.countOn(link)
		if r == 0 {
			continue
		}
		k := binomial(rng, r, e.tailP)
		if k == 0 {
			continue
		}
		if k > 2 {
			k = 2
		}
		slice := e.pending.byLink[link]
		if k == 1 {
			out = append(out, slice[rng.Intn(len(slice))])
			continue
		}
		// k == 2: replicate rand.Perm(len(slice)) draw for draw into the
		// scratch buffer (pickOn's selection, without its allocations).
		perm := resizeInts(e.perm, len(slice))
		e.perm = perm
		for i := 0; i < len(slice); i++ {
			j := rng.Intn(i + 1)
			perm[i] = perm[j]
			perm[j] = i
		}
		out = append(out, slice[perm[0]], slice[perm[1]])
	}
	e.out = out
	return out
}

func (e *spreadExec) Observe(attempted []int, success []bool) {
	for i, idx := range attempted {
		if success[i] {
			e.pending.remove(idx)
		}
	}
}
