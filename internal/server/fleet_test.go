package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dynsched"
	"dynsched/api"
)

// startRunner boots an in-process fleet runner against the coordinator
// at ts, stopped with the test.
func startRunner(t *testing.T, ts *httptest.Server, cfg RunnerConfig) *Runner {
	t.Helper()
	cfg.Coordinator = ts.URL
	if cfg.LeaseWait == 0 {
		cfg.LeaseWait = 100 * time.Millisecond
	}
	r := NewRunner(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = r.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		<-done // a runner that never stops hangs the test into go test -timeout
	})
	return r
}

func fleetHealth(t *testing.T, ts *httptest.Server) *api.FleetHealth {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h api.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Fleet
}

// postLease is a raw lease round-trip, used to play a scripted (or
// zombie) runner without the Runner machinery.
func postLease(t *testing.T, ts *httptest.Server, runner string, want int, waitMs int64) api.LeaseResponse {
	t.Helper()
	body, _ := json.Marshal(api.LeaseRequest{Runner: runner, Want: want, WaitMs: waitMs})
	resp, err := http.Post(ts.URL+"/v1/fleet/lease", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease: %s", resp.Status)
	}
	var lr api.LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	return lr
}

// TestFleetEndToEndByteIdentity is the fleet acceptance test: the same
// sweep run on a single-node server and on a dispatch-only coordinator
// with two attached runners produces bit-identical PlanResult
// documents, every unit merging through the fleet.
func TestFleetEndToEndByteIdentity(t *testing.T) {
	sc := sweepScenario("fleet-e2e", 2_000, 0.1, 0.2, 0.3, 0.35, 0.4, 0.45)

	// Reference: a plain local server.
	_, plain := startServer(t, Config{Workers: 2, QueueDepth: 8})
	_, refJob := submitScenario(t, plain, sc)
	ref := waitForState(t, plain, refJob.ID, StateDone)

	// Fleet: a dispatch-only coordinator — every unit must complete on
	// a runner — with two workers attached.
	_, coord := startServer(t, Config{Workers: 2, QueueDepth: 8, FleetLocal: -1, LeaseExpiry: 10 * time.Second})
	startRunner(t, coord, RunnerConfig{ID: "r1", Parallel: 2})
	startRunner(t, coord, RunnerConfig{ID: "r2", Parallel: 2})

	_, job := submitScenario(t, coord, sc)
	view := waitForState(t, coord, job.ID, StateDone)

	if string(view.Result) != string(ref.Result) {
		t.Fatalf("fleet-merged PlanResult is not byte-identical to the single-node run:\nfleet: %.200s\nlocal: %.200s", view.Result, ref.Result)
	}
	if view.UnitsDone != 6 || view.UnitsCached != 0 {
		t.Fatalf("fleet run counters: %d done / %d cached, want 6/0", view.UnitsDone, view.UnitsCached)
	}
	f := fleetHealth(t, coord)
	if f == nil {
		t.Fatal("no fleet section on /healthz after a fleet run")
	}
	if f.Runners != 2 {
		t.Errorf("fleet roster %d runners, want 2", f.Runners)
	}
	if f.Merged != 6 {
		t.Errorf("fleet merged %d reports, want 6", f.Merged)
	}
	if f.Leased != 0 || f.PendingUnits != 0 {
		t.Errorf("lease table not empty after the run: %d leased, %d pending", f.Leased, f.PendingUnits)
	}

	// A single run is a one-unit plan, so the dispatch-only coordinator
	// must lease it to a runner too — and serve the same bytes.
	run := lineScenario("fleet-e2e-run", 2_000, 1)
	_, refRun := submitScenario(t, plain, run)
	refRunView := waitForState(t, plain, refRun.ID, StateDone)
	_, runJob := submitScenario(t, coord, run)
	runView := waitForState(t, coord, runJob.ID, StateDone)
	if string(runView.Result) != string(refRunView.Result) {
		t.Fatalf("fleet-run result is not byte-identical to the single-node run:\nfleet: %.200s\nlocal: %.200s", runView.Result, refRunView.Result)
	}
	if got := fleetHealth(t, coord).Merged; got != f.Merged+1 {
		t.Errorf("fleet merged %d reports after the single run, want %d", got, f.Merged+1)
	}
}

// TestFleetHybridCoordinator: with the default FleetLocal the
// coordinator executes its own share while a runner takes the rest —
// the job completes and the two shares add up to the unit count.
func TestFleetHybridCoordinator(t *testing.T) {
	srv, coord := startServer(t, Config{Workers: 2, QueueDepth: 8, LeaseExpiry: 10 * time.Second})
	runner := startRunner(t, coord, RunnerConfig{ID: "hy1", Parallel: 1})

	sc := sweepScenario("fleet-hybrid", 2_000, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45)
	_, job := submitScenario(t, coord, sc)
	view := waitForState(t, coord, job.ID, StateDone)
	if view.UnitsDone != 8 {
		t.Fatalf("hybrid run finished %d units, want 8", view.UnitsDone)
	}
	remote := runner.UnitsDone()
	local := int64(srv.metrics.plan.UnitsRun.Value())
	if remote+local != 8 {
		t.Fatalf("hybrid split %d remote + %d local != 8 units", remote, local)
	}
}

// TestFleetLeaseLifecycle pins the exactly-once merge protocol at the
// lease-manager level: a lease expires, the unit re-leases to another
// runner with the lapsed one excluded, the late report against the
// stale lease is rejected idempotently, and the counters come out
// exact.
func TestFleetLeaseLifecycle(t *testing.T) {
	lm := newLeaseManager(time.Hour, 64, nil)
	pu := dynsched.PlanUnit{Hash: "unit-1", Scenario: lineScenario("ll", 100, 1)}

	type outcome struct {
		res *dynsched.SimResult
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		res, err := lm.offer(context.Background(), &fleetUnit{pu: pu})
		got <- outcome{res, err}
	}()
	waitFor(t, func() bool { _, p, _ := lm.occupancy(); return p == 1 })

	grantA, _ := lm.lease(nil, "a", 8, 0)
	if len(grantA) != 1 {
		t.Fatalf("runner a granted %d units, want 1", len(grantA))
	}
	staleID := grantA[0].leaseID

	// The lease expires: the unit returns to pending, excluded from a.
	if released := lm.sweep(time.Now().Add(2 * time.Hour)); released != 1 {
		t.Fatalf("sweep released %d leases, want 1", released)
	}

	// b joins the roster; a may not re-acquire the unit it lapsed on.
	lm.renew("b")
	if again, _ := lm.lease(nil, "a", 8, 0); len(again) != 0 {
		t.Fatalf("lapsed runner re-acquired its expired unit (%d granted)", len(again))
	}
	grantB, _ := lm.lease(nil, "b", 8, 0)
	if len(grantB) != 1 {
		t.Fatalf("runner b granted %d units, want 1", len(grantB))
	}
	if grantB[0].leaseID == staleID {
		t.Fatal("re-grant reused the stale lease ID")
	}

	// The presumed-dead runner reports late — rejected, twice, with no
	// effect on the unit.
	res, _ := json.Marshal(&dynsched.SimResult{})
	for i := 0; i < 2; i++ {
		if err := lm.report("a", api.UnitReport{Lease: staleID, Hash: pu.Hash, Result: res}); err != errStaleLease {
			t.Fatalf("late report %d: err=%v, want errStaleLease", i, err)
		}
	}
	select {
	case o := <-got:
		t.Fatalf("unit completed off a stale report: %+v", o)
	default:
	}

	// b's report merges exactly once.
	if err := lm.report("b", api.UnitReport{Lease: grantB[0].leaseID, Hash: pu.Hash, Result: res}); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	o := <-got
	if o.err != nil || o.res == nil {
		t.Fatalf("offer outcome %+v, want merged result", o)
	}
	// A duplicate of the consumed lease is stale too.
	if err := lm.report("b", api.UnitReport{Lease: grantB[0].leaseID, Hash: pu.Hash, Result: res}); err != errStaleLease {
		t.Fatalf("duplicate report: err=%v, want errStaleLease", err)
	}

	snap := lm.snapshot()
	if snap.LeasedTotal != 2 || snap.ReLeased != 1 || snap.Merged != 1 || snap.Rejected != 3 {
		t.Fatalf("counters leased=%d reLeased=%d merged=%d rejected=%d, want 2/1/1/3",
			snap.LeasedTotal, snap.ReLeased, snap.Merged, snap.Rejected)
	}
	if snap.Leased != 0 || snap.PendingUnits != 0 {
		t.Fatalf("lease table not empty: %d leased, %d pending", snap.Leased, snap.PendingUnits)
	}
}

// TestFleetLeaseEscapeHatch: exclusion yields when the lapsed runner
// is the only one left — better a retry on a suspect runner than a
// unit no one may run.
func TestFleetLeaseEscapeHatch(t *testing.T) {
	lm := newLeaseManager(time.Hour, 64, nil)
	pu := dynsched.PlanUnit{Hash: "unit-esc", Scenario: lineScenario("esc", 100, 1)}
	go lm.offer(context.Background(), &fleetUnit{pu: pu})
	waitFor(t, func() bool { _, p, _ := lm.occupancy(); return p == 1 })

	if g, _ := lm.lease(nil, "solo", 8, 0); len(g) != 1 {
		t.Fatalf("initial grant %d units, want 1", len(g))
	}
	lm.sweep(time.Now().Add(2 * time.Hour))
	g, _ := lm.lease(nil, "solo", 8, 0)
	if len(g) != 1 {
		t.Fatalf("sole surviving runner was refused its expired unit (%d granted)", len(g))
	}
}

// TestFleetTakeCancelWaitsForLocalRun pins the lease table's local
// path: an executor takes the oldest pending unit without a lease, and
// cancelling the plan withdraws the unit still pending while the taken
// one's offer returns only after its run has stopped, with the run's
// partial result and error.
func TestFleetTakeCancelWaitsForLocalRun(t *testing.T) {
	lm := newLeaseManager(time.Hour, 64, nil)
	partial := &dynsched.SimResult{}
	stopped := make(chan struct{})
	blockUntilCancelled := func(ctx context.Context) (*dynsched.SimResult, error) {
		<-ctx.Done()
		time.Sleep(10 * time.Millisecond) // the run winds down after the cut
		close(stopped)
		return partial, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		res *dynsched.SimResult
		err error
		ran bool // the taken unit's run had stopped when offer returned
	}
	offer := func(hash string, got chan<- outcome) {
		pu := dynsched.PlanUnit{Hash: hash, Scenario: lineScenario(hash, 100, 1)}
		res, err := lm.offer(ctx, &fleetUnit{pu: pu, run: blockUntilCancelled})
		ran := false
		select {
		case <-stopped:
			ran = true
		default:
		}
		got <- outcome{res, err, ran}
	}
	gotA, gotB := make(chan outcome, 1), make(chan outcome, 1)
	go offer("unit-a", gotA)
	waitFor(t, func() bool { _, p, _ := lm.occupancy(); return p == 1 })
	go offer("unit-b", gotB)
	waitFor(t, func() bool { _, p, _ := lm.occupancy(); return p == 2 })

	fu := lm.take(nil)
	if fu.pu.Hash != "unit-a" {
		t.Fatalf("take returned %s, want the oldest pending unit-a", fu.pu.Hash)
	}
	if _, p, l := lm.occupancy(); p != 1 || l != 0 {
		t.Fatalf("after take: %d pending, %d leased, want 1/0", p, l)
	}
	go fu.runHere()
	cancel()

	a := <-gotA
	if !a.ran || a.res != partial || a.err != context.Canceled {
		t.Fatalf("taken unit's offer: ran=%v res=%p err=%v, want stopped run, its partial result and context.Canceled", a.ran, a.res, a.err)
	}
	if b := <-gotB; b.res != nil || b.err != context.Canceled {
		t.Fatalf("pending unit's offer: res=%p err=%v, want nil and context.Canceled", b.res, b.err)
	}
	snap := lm.snapshot()
	if snap.PendingUnits != 0 || snap.Leased != 0 || snap.LeasedTotal != 0 || snap.Runners != 0 {
		t.Fatalf("lease table after cancel: %d pending, %d leased, %d lease grants, %d runners, want all 0",
			snap.PendingUnits, snap.Leased, snap.LeasedTotal, snap.Runners)
	}
}

// TestDrainReleasesFleetLeases is the drain-release regression test: a
// zombie runner holds every unit of a running plan on long leases, a
// live runner is attached, and Drain must hand the zombie's units over
// (not drop the job) so the plan finishes inside the grace period.
func TestDrainReleasesFleetLeases(t *testing.T) {
	srv, ts := startServer(t, Config{Workers: 2, QueueDepth: 8, FleetLocal: -1, LeaseExpiry: time.Minute})

	sc := sweepScenario("drain-fleet", 2_000, 0.1, 0.2, 0.3)
	_, job := submitScenario(t, ts, sc)

	// The zombie leases all three units and never reports. Its lease
	// outlives any reasonable grace period.
	waitFor(t, func() bool { f := fleetHealth(t, ts); return f != nil && f.PendingUnits+f.Leased == 3 })
	lr := postLease(t, ts, "zombie", 64, 0)
	if len(lr.Units) != 3 {
		t.Fatalf("zombie leased %d units, want 3", len(lr.Units))
	}

	live := startRunner(t, ts, RunnerConfig{ID: "live", Parallel: 2})

	rep := srv.Drain(20 * time.Second)
	if rep.Finished != 1 || rep.DroppedRunning != 0 {
		t.Fatalf("drain report %+v, want the plan finished via re-lease", rep)
	}
	view := getJob(t, ts, job.ID)
	if view.State != StateDone {
		t.Fatalf("job %s after drain, want done", view.State)
	}
	if live.UnitsDone() != 3 {
		t.Errorf("live runner completed %d units, want 3", live.UnitsDone())
	}
	f := fleetHealth(t, ts)
	if f.Merged != 3 {
		t.Errorf("fleet merged %d, want 3", f.Merged)
	}
}

// TestFleetUnitCacheEndpoint pins GET /v1/units/{hash}: 404 on a cold
// hash, then the exact cached bytes once the unit result is stored.
func TestFleetUnitCacheEndpoint(t *testing.T) {
	srv, ts := startServer(t, Config{Workers: 1, QueueDepth: 4})

	resp, err := http.Get(ts.URL + "/v1/units/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cold unit fetch: %s, want 404", resp.Status)
	}

	doc := []byte(`{"slots":1}`)
	srv.cache.Put("deadbeef", doc)
	resp, err = http.Get(ts.URL + "/v1/units/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != string(doc) {
		t.Fatalf("unit fetch: %s %q, want the exact cached document", resp.Status, body)
	}
}

// waitFor polls cond until it holds. The conditions are lease-table
// and job states no event reports; a hang is bounded by go test
// -timeout, which dumps every goroutine.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for !cond() {
		time.Sleep(2 * time.Millisecond)
	}
}
