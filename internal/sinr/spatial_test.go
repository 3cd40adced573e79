package sinr

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dynsched/internal/netgraph"
)

// indexedOpts is the standard indexed-backing option set used by tests.
func indexedOpts(eps float64) Options {
	return Options{Backing: BackIndexed, FarFloor: eps}
}

// randomSlots drives count random slots (with duplicates allowed) through
// both resolvers and demands identical verdicts.
func requireSameSlots(t *testing.T, rng *rand.Rand, a, b slotModel, n, count int) {
	t.Helper()
	resA, resB := a.NewResolver(), b.NewResolver()
	for trial := 0; trial < count; trial++ {
		k := 1 + rng.Intn(2*n)
		tx := make([]int, k)
		for i := range tx {
			tx[i] = rng.Intn(n)
		}
		wantS, gotS := a.Successes(tx), b.Successes(tx)
		wantR, gotR := resA(tx), resB(tx)
		for i := range tx {
			if wantS[i] != gotS[i] {
				t.Fatalf("trial %d: Successes[%d] = %v, want %v (tx %v)", trial, i, gotS[i], wantS[i], tx)
			}
			if wantR[i] != gotR[i] {
				t.Fatalf("trial %d: resolver[%d] = %v, want %v (tx %v)", trial, i, gotR[i], wantR[i], tx)
			}
		}
	}
}

// slotModel is the slice of the model API the comparison tests need.
type slotModel interface {
	Successes(tx []int) []bool
	NewResolver() func(tx []int) []bool
}

// TestFixedPowerIndexedZeroFloorBitIdentity: at ε = 0 the indexed backing
// must be bit-identical to the table backings — same Successes, same
// resolver verdicts, same weight matrix, entry for entry.
func TestFixedPowerIndexedZeroFloorBitIdentity(t *testing.T) {
	prm := DefaultParams()
	prm.Noise = 1e-4
	for _, tc := range []struct {
		name string
		kind WeightKind
		pk   PowerKind
	}{
		{"affectance/linear", WeightAffectance, PowerLinear},
		{"monotone/uniform", WeightMonotone, PowerUniform},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(101))
			g := netgraph.RandomPairs(rng, 48, 70, 1, 4)
			powers, err := Powers(g, prm, tc.pk, 1)
			if err != nil {
				t.Fatal(err)
			}
			table, err := NewFixedPower(g, prm, powers, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			indexed, err := NewFixedPowerOpts(g, prm, powers, tc.kind, indexedOpts(0))
			if err != nil {
				t.Fatal(err)
			}
			n := g.NumLinks()
			requireSameSlots(t, rng, table, indexed, n, 200)
			for e := 0; e < n; e++ {
				for e2 := 0; e2 < n; e2++ {
					if w1, w2 := table.Weight(e, e2), indexed.Weight(e, e2); w1 != w2 {
						t.Fatalf("W[%d][%d]: table %v, indexed %v (bit-identity broken)", e, e2, w1, w2)
					}
				}
			}
			if got := indexed.Table().Backing; got != "indexed" {
				t.Fatalf("Table().Backing = %q, want indexed", got)
			}
		})
	}
}

// TestPowerControlIndexedZeroFloorBitIdentity: the power-control model's
// indexed backing at ε = 0 matches the table model bit for bit —
// feasibility verdicts, shedding decisions, solved powers, and weights.
func TestPowerControlIndexedZeroFloorBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	g := netgraph.RandomPairs(rng, 40, 60, 1, 4)
	prm := DefaultParams()
	table, err := NewPowerControl(g, prm)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := NewPowerControlOpts(g, prm, indexedOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumLinks()
	requireSameSlots(t, rng, table, indexed, n, 120)
	for e := 0; e < n; e++ {
		for e2 := 0; e2 < n; e2++ {
			if w1, w2 := table.Weight(e, e2), indexed.Weight(e, e2); w1 != w2 {
				t.Fatalf("W[%d][%d]: table %v, indexed %v (bit-identity broken)", e, e2, w1, w2)
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		perm := rng.Perm(n)
		set := perm[:2+rng.Intn(6)]
		sort.Ints(set)
		p1, ok1 := table.SolvePowers(set)
		p2, ok2 := indexed.SolvePowers(set)
		if ok1 != ok2 {
			t.Fatalf("trial %d: feasibility differs: table %v, indexed %v", trial, ok1, ok2)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("trial %d: power[%d]: table %v, indexed %v", trial, i, p1[i], p2[i])
			}
		}
	}
}

// TestFixedPowerFarFloorSoundness: at ε > 0 the indexed estimate
// Î = near + tail must dominate the true interference at every receiver
// (the measured tail never exceeds the stated bound), so every success
// the indexed resolver reports is a true SINR success.
func TestFixedPowerFarFloorSoundness(t *testing.T) {
	prm := DefaultParams()
	prm.Noise = 1e-4
	rng := rand.New(rand.NewSource(107))
	g := netgraph.RandomPairs(rng, 96, 120, 1, 4)
	powers, err := Powers(g, prm, PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewFixedPower(g, prm, powers, WeightMonotone)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumLinks()
	for _, eps := range []float64{1e-6, 1e-3, 0.05} {
		m, err := NewFixedPowerOpts(g, prm, powers, WeightMonotone, indexedOpts(eps))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 60; trial++ {
			k := 2 + rng.Intn(n)
			tx := rng.Perm(n)[:k]
			sort.Ints(tx)
			// Reproduce the resolver's slot setup to read Î directly.
			sc := m.scratch.Get().(*fpScratch)
			sc.rs.Count(tx)
			sort.Ints(sc.rs.Uniq)
			sel := sc.sel[:0]
			ptotal := 0.0
			for _, e := range sc.rs.Uniq {
				sel = append(sel, int32(e))
				ptotal += m.powers[e]
			}
			sc.sel = sel
			sc.grid.Fill(m.sendPos, sel, m.powers, 0)
			var ring []int32
			for _, e := range tx {
				near, tail := m.indexedInterference(sc, e, ptotal, &ring)
				truth := prm.Noise
				for _, e2 := range tx {
					if e2 != e {
						truth += m.powers[e2] / math.Pow(m.sendPos[e2].Dist(m.recvPos[e]), prm.Alpha)
					}
				}
				if est := near + tail; est < truth*(1-1e-12) {
					t.Fatalf("eps=%g trial %d link %d: estimate %v below true interference %v", eps, trial, e, est, truth)
				}
				if near > truth*(1+1e-12) {
					t.Fatalf("eps=%g trial %d link %d: near part %v exceeds true interference %v", eps, trial, e, near, truth)
				}
			}
			sc.rs.End(tx)
			m.scratch.Put(sc)
			// End to end: indexed success ⊆ exact success.
			got, want := m.Successes(tx), exact.Successes(tx)
			for i := range tx {
				if got[i] && !want[i] {
					t.Fatalf("eps=%g trial %d: link %d reported success but fails the exact SINR test", eps, trial, tx[i])
				}
			}
		}
	}
}

// TestFixedPowerFloorSparseWeights: the ε > 0 analysis matrix keeps every
// dense entry that reaches the floor — bit-identical — and drops only
// entries provably below it.
func TestFixedPowerFloorSparseWeights(t *testing.T) {
	prm := DefaultParams()
	prm.Noise = 1e-4
	rng := rand.New(rand.NewSource(109))
	g := netgraph.RandomPairs(rng, 64, 90, 1, 4)
	const eps = 1e-3
	for _, tc := range []struct {
		name string
		kind WeightKind
		pk   PowerKind
	}{
		{"affectance/linear", WeightAffectance, PowerLinear},
		{"monotone/uniform", WeightMonotone, PowerUniform},
	} {
		t.Run(tc.name, func(t *testing.T) {
			powers, err := Powers(g, prm, tc.pk, 1)
			if err != nil {
				t.Fatal(err)
			}
			dense, err := NewFixedPower(g, prm, powers, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			sparse, err := NewFixedPowerOpts(g, prm, powers, tc.kind, indexedOpts(eps))
			if err != nil {
				t.Fatal(err)
			}
			checkFloorSparse(t, g.NumLinks(), eps, dense.Weight, sparse.Weight)
			if rows := sparse.WeightRows(); rows.NNZ() >= g.NumLinks()*g.NumLinks() {
				t.Fatalf("floor-sparse matrix is not sparse: %d entries", rows.NNZ())
			}
		})
	}
}

// TestPowerControlFloorSparseWeights: same contract for the §6.2
// distance-ratio matrix.
func TestPowerControlFloorSparseWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	g := netgraph.RandomPairs(rng, 64, 90, 1, 4)
	prm := DefaultParams()
	const eps = 1e-3
	dense, err := NewPowerControl(g, prm)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewPowerControlOpts(g, prm, indexedOpts(eps))
	if err != nil {
		t.Fatal(err)
	}
	checkFloorSparse(t, g.NumLinks(), eps, dense.Weight, sparse.Weight)
}

// checkFloorSparse verifies the floor-sparse contract entry by entry:
// every stored entry equals the dense value bit for bit, every dropped
// off-diagonal entry is below the floor in the dense matrix.
func checkFloorSparse(t *testing.T, n int, eps float64, dense, sparse func(e, e2 int) float64) {
	t.Helper()
	kept, dropped := 0, 0
	for e := 0; e < n; e++ {
		for e2 := 0; e2 < n; e2++ {
			d, s := dense(e, e2), sparse(e, e2)
			if s != 0 {
				if s != d {
					t.Fatalf("W[%d][%d]: sparse %v, dense %v (stored entries must match bitwise)", e, e2, s, d)
				}
				kept++
				continue
			}
			if e == e2 {
				t.Fatalf("diagonal W[%d][%d] dropped", e, e2)
			}
			if d >= eps {
				t.Fatalf("W[%d][%d] = %v ≥ floor %v but was dropped", e, e2, d, eps)
			}
			dropped++
		}
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("degenerate instance: %d kept, %d dropped entries — tune the test geometry", kept, dropped)
	}
}

// TestOptionsBackingSelection pins the default dense backing and its
// agreement with the indexed one.
func TestOptionsBackingSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	g := netgraph.RandomPairs(rng, 24, 40, 1, 4)
	prm := DefaultParams()
	powers, err := Powers(g, prm, PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	build := func(opt Options) *FixedPower {
		t.Helper()
		m, err := NewFixedPowerOpts(g, prm, powers, WeightMonotone, opt)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Default: the dense table.
	if m := build(Options{}); m.gain.dense == nil || m.Table().Backing != "dense" {
		t.Fatalf("default backing = %q (dense table: %v), want dense", m.Table().Backing, m.gain.dense != nil)
	}
	// Both backings agree on outcomes.
	requireSameSlots(t, rng, build(Options{}), build(Options{Backing: BackIndexed}), g.NumLinks(), 50)
}

// TestOptionsValidation pins the option error paths and ParseBacking.
func TestOptionsValidation(t *testing.T) {
	for s, want := range map[string]Backing{
		"": BackDense, "auto": BackDense, "dense": BackDense,
		"indexed": BackIndexed,
	} {
		got, err := ParseBacking(s)
		if err != nil || got != want {
			t.Fatalf("ParseBacking(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"mmap", "csr"} {
		if _, err := ParseBacking(s); err == nil {
			t.Fatalf("ParseBacking accepted the unknown backing %q", s)
		}
	}
	for name, opt := range map[string]Options{
		"farfloor without indexed": {FarFloor: 0.1},
		"farfloor ≥ 1":             {Backing: BackIndexed, FarFloor: 1},
		"negative farfloor":        {Backing: BackIndexed, FarFloor: -0.1},
	} {
		if err := opt.validate(); err == nil {
			t.Errorf("%s: validate accepted %+v", name, opt)
		}
	}
	rng := rand.New(rand.NewSource(131))
	g := netgraph.RandomPairs(rng, 8, 20, 1, 4)
	prm := DefaultParams()
	powers, err := Powers(g, prm, PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A metric override has no planar geometry to index.
	dm := make([][]float64, g.NumNodes())
	for i := range dm {
		dm[i] = make([]float64, g.NumNodes())
		for j := range dm[i] {
			if i != j {
				dm[i][j] = g.NodeDist(netgraph.NodeID(i), netgraph.NodeID(j))
			}
		}
	}
	gm := netgraph.New(g.NumNodes())
	for e := 0; e < g.NumLinks(); e++ {
		l := g.Link(netgraph.LinkID(e))
		gm.MustAddLink(l.From, l.To)
	}
	gm.SetMetric(dm)
	if _, err := NewFixedPowerOpts(gm, prm, powers, WeightMonotone, indexedOpts(0)); err == nil {
		t.Fatal("indexed backing accepted a metric-only graph")
	}
	if _, err := NewPowerControlOpts(gm, prm, indexedOpts(0)); err == nil {
		t.Fatal("power-control indexed backing accepted a metric-only graph")
	}
}
