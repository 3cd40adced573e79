package inject

import (
	"math"
	"math/rand"
	"testing"

	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
)

func singleHopGens(links int, p float64) []Generator {
	gens := make([]Generator, links)
	for i := range gens {
		gens[i] = Generator{Choices: []PathChoice{{Path: netgraph.Path{netgraph.LinkID(i)}, P: p}}}
	}
	return gens
}

func TestGeneratorValidate(t *testing.T) {
	good := Generator{Choices: []PathChoice{
		{Path: netgraph.Path{0}, P: 0.3},
		{Path: netgraph.Path{1}, P: 0.7},
	}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Generator{
		{Choices: []PathChoice{{Path: netgraph.Path{0}, P: -0.1}}},
		{Choices: []PathChoice{{Path: netgraph.Path{}, P: 0.5}}},
		{Choices: []PathChoice{{Path: netgraph.Path{0}, P: 0.6}, {Path: netgraph.Path{1}, P: 0.6}}},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad generator %d accepted", i)
		}
	}
}

func TestStochasticRateIdentity(t *testing.T) {
	// Identity model: rate is the max per-link expected load.
	m := interference.Identity{Links: 3}
	gens := singleHopGens(3, 0.2)
	s, err := NewStochastic(m, gens)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Rate()-0.2) > 1e-12 {
		t.Errorf("rate = %v, want 0.2", s.Rate())
	}
}

func TestStochasticRateMAC(t *testing.T) {
	// MAC model: rate is the total expected injections.
	m := interference.AllOnes{Links: 4}
	gens := singleHopGens(4, 0.1)
	s, err := NewStochastic(m, gens)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Rate()-0.4) > 1e-12 {
		t.Errorf("rate = %v, want 0.4", s.Rate())
	}
}

func TestStochasticStepStatistics(t *testing.T) {
	m := interference.Identity{Links: 2}
	gens := singleHopGens(2, 0.25)
	s, err := NewStochastic(m, gens)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(101))
	var count int
	const slots = 20000
	seen := make(map[int64]bool)
	for t2 := int64(0); t2 < slots; t2++ {
		pkts := s.Step(t2, rng)
		for _, p := range pkts {
			if seen[p.ID] {
				t.Fatalf("duplicate packet ID %d", p.ID)
			}
			seen[p.ID] = true
			if p.Injected != t2 {
				t.Fatalf("packet stamped %d at slot %d", p.Injected, t2)
			}
		}
		count += len(pkts)
	}
	mean := float64(count) / slots
	if mean < 0.45 || mean > 0.55 {
		t.Errorf("mean injections %v per slot, want ≈0.5", mean)
	}
}

func TestStochasticAtRate(t *testing.T) {
	m := interference.AllOnes{Links: 5}
	gens := singleHopGens(5, 0.1) // base rate 0.5
	s, err := StochasticAtRate(m, gens, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Rate()-0.25) > 1e-9 {
		t.Errorf("scaled rate = %v, want 0.25", s.Rate())
	}
	// Scaling beyond probability-1 per generator must fail.
	if _, err := StochasticAtRate(m, gens, 12); err == nil {
		t.Error("impossible rate accepted")
	}
	// Zero base rate must fail.
	if _, err := StochasticAtRate(m, singleHopGens(5, 0), 0.1); err == nil {
		t.Error("zero base rate accepted")
	}
}

// TestScaleGenerators checks the probability scaling StochasticAtRate
// applies in place to its flattened copy of the choices.
func TestScaleGenerators(t *testing.T) {
	m := interference.Identity{Links: 2}
	gens := singleHopGens(2, 0.4) // base rate 0.4
	s, err := StochasticAtRate(m, gens, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if s.p[0] != 0.8 {
		t.Errorf("scaled P = %v, want 0.8", s.p[0])
	}
	// The generators passed in must be untouched.
	if gens[0].Choices[0].P != 0.4 {
		t.Error("StochasticAtRate mutated its input")
	}
	if _, err := StochasticAtRate(m, gens, 1.2); err == nil {
		t.Error("over-scaling accepted")
	}
	if _, err := StochasticAtRate(m, gens, -0.4); err == nil {
		t.Error("negative scaling accepted")
	}
}

// referenceStep is the per-generator sampling loop the flat arrays
// must reproduce draw for draw.
func referenceStep(gens []Generator, nextID *int64, t int64, rng *rand.Rand) []Packet {
	var out []Packet
	for _, g := range gens {
		u := rng.Float64()
		for _, c := range g.Choices {
			if u < c.P {
				*nextID++
				out = append(out, Packet{ID: *nextID, Path: c.Path, Injected: t})
				break
			}
			u -= c.P
		}
	}
	return out
}

// TestStochasticStepMatchesReference runs both Step loops, the one for
// single-choice generators and the general one (generators with no,
// one and several choices), against the reference loop.
func TestStochasticStepMatchesReference(t *testing.T) {
	path := func(e int) netgraph.Path { return netgraph.Path{netgraph.LinkID(e)} }
	mixed := []Generator{
		{},
		{Choices: []PathChoice{{Path: path(0), P: 0.3}}},
		{Choices: []PathChoice{{Path: path(1), P: 0.2}, {Path: path(2), P: 0.5}}},
		{Choices: []PathChoice{{Path: path(0), P: 0.1}, {Path: path(1), P: 0.1}, {Path: path(2), P: 0.1}}},
	}
	for name, gens := range map[string][]Generator{"single": singleHopGens(3, 0.4), "mixed": mixed} {
		s, err := NewStochastic(interference.Identity{Links: 3}, gens)
		if err != nil {
			t.Fatal(err)
		}
		if s.single != (name == "single") {
			t.Fatalf("%s: single = %v", name, s.single)
		}
		got, want := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
		var refID int64
		for slot := int64(0); slot < 2000; slot++ {
			a, b := s.Step(slot, got), referenceStep(gens, &refID, slot, want)
			if len(a) != len(b) {
				t.Fatalf("%s slot %d: %d packets, want %d", name, slot, len(a), len(b))
			}
			for i := range a {
				if a[i].ID != b[i].ID || a[i].Injected != b[i].Injected || a[i].Path[0] != b[i].Path[0] {
					t.Fatalf("%s slot %d: packet %+v, want %+v", name, slot, a[i], b[i])
				}
			}
		}
		if got.Int63() != want.Int63() {
			t.Fatalf("%s: the two loops drew different numbers of values", name)
		}
	}
}

func TestPathRequestsCountsMultiplicity(t *testing.T) {
	r := PathRequests(3, netgraph.Path{0, 1, 0})
	if r[0] != 2 || r[1] != 1 || r[2] != 0 {
		t.Errorf("requests = %v", r)
	}
}

func TestStochasticRejectsBadPaths(t *testing.T) {
	m := interference.Identity{Links: 2}
	gens := []Generator{{Choices: []PathChoice{{Path: netgraph.Path{7}, P: 0.1}}}}
	if _, err := NewStochastic(m, gens); err == nil {
		t.Error("out-of-range path accepted")
	}
}

func TestTraceRecordReplay(t *testing.T) {
	m := interference.Identity{Links: 3}
	gens := singleHopGens(3, 0.3)
	proc, err := NewStochastic(m, gens)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(401))
	trace := Record(proc, 500, rng)
	if trace.Packets() == 0 {
		t.Fatal("trace recorded nothing")
	}
	if trace.Slots() != 500 {
		t.Fatalf("slots = %d", trace.Slots())
	}
	// Two replays produce identical sequences regardless of the rng.
	r1 := rand.New(rand.NewSource(1))
	r2 := rand.New(rand.NewSource(999))
	for slot := int64(0); slot < 500; slot++ {
		a := trace.Replay().Step(slot, r1)
		b := trace.Replay().Step(slot, r2)
		if len(a) != len(b) {
			t.Fatalf("slot %d: replay lengths differ", slot)
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Injected != b[i].Injected {
				t.Fatalf("slot %d: replay packets differ", slot)
			}
		}
	}
	// Beyond the horizon: silence.
	if got := trace.Step(10_000, r1); got != nil {
		t.Fatalf("beyond-horizon step returned %v", got)
	}
	// Mutating a returned slice must not corrupt the recording.
	first := trace.Step(findFirstSlot(t, trace), r1)
	if len(first) > 0 {
		first[0].ID = -1
		again := trace.Step(findFirstSlot(t, trace), r1)
		if again[0].ID == -1 {
			t.Fatal("replay aliasing: caller mutated the recording")
		}
	}
}

func findFirstSlot(t *testing.T, tr *Trace) int64 {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	for s := int64(0); s < tr.Slots(); s++ {
		if len(tr.Step(s, rng)) > 0 {
			return s
		}
	}
	t.Fatal("no injections in trace")
	return 0
}

func TestPacketRateAndTraceAccessors(t *testing.T) {
	m := interference.AllOnes{Links: 3}
	s, err := NewStochastic(m, singleHopGens(3, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PacketRate(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("PacketRate = %v, want 0.6", got)
	}
	rng := rand.New(rand.NewSource(402))
	tr := Record(s, 100, rng)
	if tr.Name() == "" || tr.Rate() != s.Rate() {
		t.Errorf("trace accessors wrong: %q %v", tr.Name(), tr.Rate())
	}
}
