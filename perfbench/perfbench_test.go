package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"dynsched"
	"dynsched/internal/interference"
)

// TestTracedGrid4kMatchesUntraced runs the grid4k spec past its first
// frame with and without the tracing wrappers. The wrapped run must
// produce the same document and drive the model's resolver exactly as
// the bare run does — a wrapper that hid NewResolver or NewResolverN
// would fall back to Successes and leave the grid counters behind.
func TestTracedGrid4kMatchesUntraced(t *testing.T) {
	sc, err := grid4kSpec(1)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	frame := probe.Protocol.Sizing().T
	sc.Sim.Slots = int64(frame) + 500

	plain, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var l layers
	m := &tracedModel{Model: wrapped.Model, l: &l}
	got, err := dynsched.SimulateContext(context.Background(), wrapped.Config, m,
		&tracedProcess{InjectionProcess: wrapped.Process, l: &l},
		&tracedProtocol{SimProtocol: wrapped.Protocol, l: &l},
		wrapped.Observers...)
	if err != nil {
		t.Fatal(err)
	}

	wantDoc, _ := json.Marshal(want)
	gotDoc, _ := json.Marshal(got)
	if !bytes.Equal(wantDoc, gotDoc) {
		t.Fatalf("traced run differs from the untraced run over %d slots (frame %d)", sc.Sim.Slots, frame)
	}
	sp, ok := plain.Model.(interference.ResolveStatsProvider)
	if !ok {
		t.Fatalf("grid4k model %T keeps no resolve stats", plain.Model)
	}
	wantStats, gotStats := sp.ResolveStats(), m.ResolveStats()
	if wantStats != gotStats {
		t.Fatalf("resolve stats: traced %+v, untraced %+v", gotStats, wantStats)
	}
	if wantStats.GridRebuilds+wantStats.GridDeltaUpdates == 0 {
		t.Fatal("the run never resolved a slot through the spatial grid")
	}
	if l.attempts != got.AttemptedTx || l.successes != got.SuccessfulTx {
		t.Fatalf("traced resolver saw %d/%d transmissions, result says %d/%d",
			l.successes, l.attempts, got.SuccessfulTx, got.AttemptedTx)
	}
	if l.packets != got.Injected {
		t.Fatalf("traced injection saw %d packets, result says %d", l.packets, got.Injected)
	}
}

// TestManifestMatchesBenchmarkJSON keeps the committed BENCHMARK.json in
// step with the catalogue this program defines; regenerate it with
// --manifest.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh --manifest > BENCHMARK.json")
	}
}
