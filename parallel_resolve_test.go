package dynsched

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync/atomic"
	"testing"

	"dynsched/internal/interference"
)

// wideSlot is the slot size (transmissions) at which the SINR
// resolvers shard a slot across their intra-slot workers.
const wideSlot = 256

// pinnedModel pins the worker count of a model's resolver and counts
// the slots wide enough to fan out, so a test can both choose the
// worker count per run and prove the fan-out ran.
type pinnedModel struct {
	Model
	workers int
	wide    atomic.Int64
}

func (m *pinnedModel) NewResolver() func(tx []int) []bool {
	resolve := interference.ResolveFuncN(m.Model, m.workers)
	return func(tx []int) []bool {
		if len(tx) >= wideSlot {
			m.wide.Add(1)
		}
		return resolve(tx)
	}
}

// runPinned compiles s and runs it with its model's resolver pinned to
// workers, returning the result document and the wide-slot count.
func runPinned(t *testing.T, s Scenario, workers int) ([]byte, int64) {
	t.Helper()
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := &pinnedModel{Model: c.Model, workers: workers}
	res, err := SimulateContext(context.Background(), c.Config, m, c.Process, c.Protocol, c.Observers...)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return doc, m.wide.Load()
}

// TestScenariosBitIdenticalAcrossResolveWorkers runs every registered
// scenario at intra-slot resolution worker counts {2, 4, GOMAXPROCS}
// and requires byte-identical full-Result JSON against the serial run.
// This pins the contract of the parallel resolvers: worker count is an
// execution detail, never an experiment parameter — each link's
// interference sum keeps its exact serial accumulation order at every
// worker count and every chunking.
//
// None of the registered scenarios run here fills a slot with wideSlot
// transmissions, so one extra case drives sinr-grid-4k under
// full-parallel at λ = 0.1 for one frame plus 500 slots, which resolves
// 32 slots of ≥ wideSlot transmissions; it fails if none fan out.
func TestScenariosBitIdenticalAcrossResolveWorkers(t *testing.T) {
	const quickSlots = 2000
	counts := []int{2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		counts = append(counts, g)
	}
	type tcase struct {
		s        Scenario
		wantWide bool
	}
	var cases []tcase
	for _, s := range Scenarios() {
		if s.Network.Links > 4096 {
			continue // scale scenarios are too large for quick tests
		}
		s.Sim.Slots = quickSlots
		cases = append(cases, tcase{s: s})
	}
	wide, ok := ScenarioByName("sinr-grid-4k")
	if !ok {
		t.Fatal("sinr-grid-4k not registered")
	}
	wide.Name += "-full-parallel"
	wide.Protocol.Alg = "full-parallel"
	wide.Traffic.Lambda = 0.1
	c, err := wide.Compile()
	if err != nil {
		t.Fatal(err)
	}
	wide.Sim.Slots = int64(c.Protocol.Sizing().T) + 500
	cases = append(cases, tcase{s: wide, wantWide: true})

	for _, tc := range cases {
		tc := tc
		t.Run(tc.s.Name, func(t *testing.T) {
			t.Parallel()
			want, _ := runPinned(t, tc.s, 1)
			for _, workers := range counts {
				got, wideSlots := runPinned(t, tc.s, workers)
				if tc.wantWide && wideSlots == 0 {
					t.Fatalf("workers=%d: no slot reached %d transmissions, so the fan-out never ran", workers, wideSlot)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("workers=%d diverged from serial\nparallel: %s\nserial:   %s", workers, got, want)
				}
			}
		})
	}
}
