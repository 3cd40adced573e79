// Package inject implements the paper's two packet-injection models
// (Section 2.1): time-invariant finite-user stochastic injection, and
// the (w, λ)-bounded window adversary. Both bound the average
// interference measure of injected requests per slot by the injection
// rate λ: with F the expected per-slot request vector, every component
// of W·F is at most λ (stochastic), and over any w consecutive slots the
// injected request vector R satisfies ‖W·R‖∞ ≤ w·λ (adversarial).
package inject

import (
	"fmt"
	"math/rand"

	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
)

// Packet is an injected communication request with a fixed path.
type Packet struct {
	ID       int64
	Path     netgraph.Path
	Injected int64 // slot of injection
}

// Process produces the packets arriving in each slot.
type Process interface {
	// Name identifies the process in experiment output.
	Name() string
	// Step returns the packets injected at slot t. Implementations
	// assign fresh packet IDs and stamp Injected = t. The returned slice
	// is only valid until the next Step call — implementations may reuse
	// it, so callers that keep packets across slots must copy them (the
	// Path slices, by contrast, are stable and may be retained).
	Step(t int64, rng *rand.Rand) []Packet
	// Rate returns the nominal injection rate λ.
	Rate() float64
}

// PathRequests converts a path into its per-link request multiset,
// counting multiplicity for paths that reuse a link.
func PathRequests(numLinks int, p netgraph.Path) []int {
	r := make([]int, numLinks)
	for _, e := range p {
		r[e]++
	}
	return r
}

// PathChoice is one option of a stochastic generator: with probability
// P, inject a packet routed along Path.
type PathChoice struct {
	Path netgraph.Path
	P    float64
}

// Generator is one of the finite users of the stochastic model: per
// slot it injects at most one packet, choosing among its paths with
// fixed probabilities (identically distributed across slots, independent
// of everything else).
type Generator struct {
	Choices []PathChoice
}

// Validate checks that the generator's probabilities form a sub-distribution.
func (g Generator) Validate() error {
	sum := 0.0
	for i, c := range g.Choices {
		if c.P < 0 {
			return fmt.Errorf("inject: generator choice %d has negative probability %v", i, c.P)
		}
		if len(c.Path) == 0 {
			return fmt.Errorf("inject: generator choice %d has empty path", i)
		}
		sum += c.P
	}
	if sum > 1+1e-12 {
		return fmt.Errorf("inject: generator probabilities sum to %v > 1", sum)
	}
	return nil
}

// Stochastic is the finite-user stochastic injection process. Every
// generator's choices sit flattened in two contiguous arrays, so a slot
// walks them in order: generator g owns p[end[g-1]:end[g]] and the
// matching paths (end[-1] = 0).
type Stochastic struct {
	p      []float64
	paths  []netgraph.Path
	end    []int
	single bool // every generator has exactly one choice
	rate   float64
	nextID int64
	buf    []Packet // Step result buffer, reused across slots
}

// NewStochastic builds the process and computes its exact injection
// rate λ = ‖W·F‖∞ against the given model.
func NewStochastic(m interference.Model, gens []Generator) (*Stochastic, error) {
	n, single := 0, true
	for i, g := range gens {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("generator %d: %w", i, err)
		}
		n += len(g.Choices)
		single = single && len(g.Choices) == 1
	}
	s := &Stochastic{
		p:      make([]float64, 0, n),
		paths:  make([]netgraph.Path, 0, n),
		end:    make([]int, len(gens)),
		single: single,
	}
	for i, g := range gens {
		for _, c := range g.Choices {
			s.p = append(s.p, c.P)
			s.paths = append(s.paths, c.Path)
		}
		s.end[i] = len(s.p)
	}
	if err := s.measureRate(m); err != nil {
		return nil, err
	}
	return s, nil
}

// measureRate sets rate = ‖W·F‖∞ from the current choice probabilities.
func (s *Stochastic) measureRate(m interference.Model) error {
	f := make([]float64, m.NumLinks())
	for k, path := range s.paths {
		for _, e := range path {
			if int(e) >= len(f) || e < 0 {
				return fmt.Errorf("inject: path link %d out of range [0,%d)", e, len(f))
			}
			f[e] += s.p[k]
		}
	}
	s.rate = interference.MeasureVec(m, f)
	return nil
}

// Name implements Process.
func (s *Stochastic) Name() string { return "stochastic" }

// Rate implements Process.
func (s *Stochastic) Rate() float64 { return s.rate }

// PacketRate returns the expected number of packets injected per slot —
// the physical-units counterpart of Rate, which is in interference-
// measure units. The ratio PacketRate/Rate is the average number of
// packets one unit of measure budget buys under the model's W.
func (s *Stochastic) PacketRate() float64 {
	total := 0.0
	for _, p := range s.p {
		total += p
	}
	return total
}

// Step implements Process: one Float64 draw per generator, compared
// against its choices' probabilities in order. The result is written
// into a buffer reused across slots (see the Process contract).
func (s *Stochastic) Step(t int64, rng *rand.Rand) []Packet {
	out := s.buf[:0]
	if s.single {
		// The shape the traffic package builds. Without the offsets
		// fewer values stay live across each draw, which made sampling
		// sinr-grid-4k about a sixth faster.
		for k, p := range s.p {
			if rng.Float64() < p {
				s.nextID++
				out = append(out, Packet{ID: s.nextID, Path: s.paths[k], Injected: t})
			}
		}
		s.buf = out
		return out
	}
	k := 0
	for _, end := range s.end {
		u := rng.Float64()
		for ; k < end; k++ {
			if u < s.p[k] {
				s.nextID++
				out = append(out, Packet{ID: s.nextID, Path: s.paths[k], Injected: t})
				break
			}
			u -= s.p[k]
		}
		k = end
	}
	s.buf = out
	return out
}

// StochasticAtRate scales the generators so the process's injection
// rate is exactly lambda, and returns the resulting process. It fails
// if the unscaled rate is zero or if scaling would push a generator's
// total probability above 1 (add more generators in that case).
func StochasticAtRate(m interference.Model, gens []Generator, lambda float64) (*Stochastic, error) {
	s, err := NewStochastic(m, gens)
	if err != nil {
		return nil, err
	}
	if s.rate <= 0 {
		return nil, fmt.Errorf("inject: base generators have zero injection rate")
	}
	factor := lambda / s.rate
	if factor < 0 {
		return nil, fmt.Errorf("inject: negative scale factor %v", factor)
	}
	k := 0
	for i, end := range s.end {
		sum := 0.0
		for ; k < end; k++ {
			s.p[k] *= factor
			sum += s.p[k]
		}
		if sum > 1+1e-12 {
			return nil, fmt.Errorf("inject: generator %d scales to total probability %v > 1", i, sum)
		}
	}
	if err := s.measureRate(m); err != nil {
		return nil, err
	}
	return s, nil
}
