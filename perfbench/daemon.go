package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynsched"
	"dynsched/api"
	"dynsched/internal/ctl"
	"dynsched/internal/server"
)

const (
	// daemonWorkers and daemonClients fix the daemon workload's shape:
	// two job workers served to two closed-loop clients.
	daemonWorkers = 2
	daemonClients = 2
	// daemonMaxJobs bounds the job registry so the live heap reaches a
	// steady state a few seconds into the run instead of growing with
	// the number of jobs finished.
	daemonMaxJobs = 256
	daemonSetups  = 101
	// lineSlots is the length of the cycle's single-run jobs.
	lineSlots = 2000
	// replayJobs caps how many cold jobs' unit results the encode and
	// cache-put replay uses.
	replayJobs = 8
)

// daemon is one in-process dynschedd serving on a loopback listener
// with its journal in a fresh directory. Its result cache keeps the
// memory tier only: on a disk filesystem the gzip spill's file creation
// spread throughput across runs by more than the bounds (23 to 32
// jobs/s, against 41 to 49 without it), so the spill is measured by
// the cache.put_ms replay instead.
type daemon struct {
	dir    string
	srv    *server.Server
	hs     *http.Server
	cancel context.CancelFunc
	served chan struct{}
	addr   string
}

// startDaemon builds a server and serves it; the returned duration runs
// from server.New to the first healthy /healthz.
func startDaemon(stateRoot string) (*daemon, time.Duration, error) {
	dir, err := os.MkdirTemp(stateRoot, "daemon-")
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	srv, err := server.New(server.Config{
		Workers:    daemonWorkers,
		MaxJobs:    daemonMaxJobs,
		JournalDir: filepath.Join(dir, "journal"),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()}, cancel: cancel, served: make(chan struct{}), addr: ln.Addr().String()}
	srv.Start(ctx)
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns ErrServerClosed after stop's Shutdown
	}()
	c := newClient(d.addr)
	defer c.close()
	for {
		_, err := c.Health(ctx)
		if err == nil {
			break
		}
		if time.Since(t0) > 10*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("daemon not healthy after 10s: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(t0), nil
}

// stop drains the server, stops its goroutines and the HTTP server,
// and removes the state directory.
func (d *daemon) stop() {
	d.srv.Drain(10 * time.Second)
	d.cancel()
	d.srv.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx)
	<-d.served
	os.RemoveAll(d.dir)
}

// client is one closed-loop daemon client with its own connections.
type client struct {
	*ctl.Client
	tr *http.Transport
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	c := ctl.NewClient(addr)
	c.HTTP = &http.Client{Transport: tr}
	return &client{Client: c, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// Job kinds of the client cycle. With one of each, the job latency
// median sits inside the warm jobs' mode and the 90th percentile
// inside the cold sweeps', not on a boundary between two modes.
const (
	kindRun   = "run"   // registered line-stochastic by name
	kindSweep = "sweep" // the sweep64 spec, inline
	kindWarm  = "warm"  // resubmission of the cycle's finished sweep
)

var cycle = []string{kindRun, kindSweep, kindWarm}

// lineSpec is the registered line-stochastic scenario at lineSlots.
func lineSpec(seed int64) (dynsched.Scenario, error) {
	sc, ok := dynsched.ScenarioByName("line-stochastic")
	if !ok {
		return sc, errors.New("scenario line-stochastic is not registered")
	}
	sc.Sim.Slots = lineSlots
	sc.Sim.Seed = seed
	return sc, nil
}

// jobRecord is one daemon job as the client saw it.
type jobRecord struct {
	kind   string
	seed   int64
	cached bool
	digest [32]byte // of the compact result document

	lat, submit, queueWait, exec, fetch time.Duration
	hasExec                             bool // the job ran (not a cache hit)
}

// spec returns the scenario a cold job ran.
func (j *jobRecord) spec() (dynsched.Scenario, error) {
	if j.kind == kindSweep {
		return sweep64Spec(j.seed), nil
	}
	return lineSpec(j.seed)
}

// do submits body, follows the job's event stream to its end and
// fetches the result.
func (c *client) do(ctx context.Context, body []byte, rec *jobRecord) error {
	t0 := time.Now()
	v, cached, err := c.Submit(ctx, body)
	if err != nil {
		return fmt.Errorf("submit %s job: %w", rec.kind, err)
	}
	tSub := time.Now()
	rec.submit, rec.cached = tSub.Sub(t0), cached
	tDone := tSub
	if !cached {
		var tStart time.Time
		err = c.Events(ctx, v.ID, func(e api.Event) error {
			switch e.Type {
			case "started":
				tStart = time.Now()
			case "done":
				tDone = time.Now()
			case "failed", "cancelled":
				return fmt.Errorf("job %s %s: %s", v.ID, e.Type, e.Error)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if !tStart.IsZero() {
			rec.queueWait, rec.exec, rec.hasExec = tStart.Sub(tSub), tDone.Sub(tStart), true
		}
	}
	view, err := c.Job(ctx, v.ID)
	if err != nil {
		return fmt.Errorf("fetch job %s: %w", v.ID, err)
	}
	end := time.Now()
	rec.fetch, rec.lat = end.Sub(tDone), end.Sub(t0)
	if view.State != api.StateDone {
		return fmt.Errorf("job %s ended %s: %s", v.ID, view.State, view.Error)
	}
	var doc bytes.Buffer
	if err := json.Compact(&doc, view.Result); err != nil {
		return fmt.Errorf("job %s result: %w", v.ID, err)
	}
	rec.digest = sha256.Sum256(doc.Bytes())
	return nil
}

// daemonPhase is what one phase of both clients' cycles against a
// fresh daemon measured.
type daemonPhase struct {
	*phase
	records  [][]*jobRecord // per client, in order
	failures []error
	before   ctl.Metrics
	after    ctl.Metrics
}

// runDaemonPhase runs the clients until d has elapsed; each finishes
// the cycle it is in. With scrape set it reads /metrics before and
// after the clients run.
func runDaemonPhase(ctx context.Context, o runOpts, d time.Duration, scrape bool) (*daemonPhase, error) {
	dm, _, err := startDaemon(o.stateDir)
	if err != nil {
		return nil, err
	}
	defer dm.stop()
	out := &daemonPhase{records: make([][]*jobRecord, daemonClients)}
	probe := newClient(dm.addr)
	defer probe.close()
	if scrape {
		if out.before, err = probe.Metrics(ctx); err != nil {
			return nil, err
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	out.phase = startPhase(daemonClients, cycleWork{int64(len(cycle)), 1 + sweepUnits, lineSlots + sweepUnits*sweepSlots})
	for ci := 0; ci < daemonClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(dm.addr)
			defer c.close()
			var sweepBody []byte
			var sweepRec *jobRecord
			for k := 0; k == 0 || time.Since(out.phase.start) < d; k++ {
				t0 := time.Now()
				ok := true
				for j, kind := range cycle {
					rec := &jobRecord{kind: kind, seed: dynsched.SubSeed(o.seed, (ci*1_000_000+k)*len(cycle)+j)}
					body, err := submission(rec, sweepBody, sweepRec)
					if err == nil {
						err = c.do(ctx, body, rec)
					}
					if err == nil {
						err = checkCached(rec, sweepRec)
					}
					if kind == kindSweep {
						sweepBody, sweepRec = body, rec
					}
					mu.Lock()
					if err != nil {
						out.failures = append(out.failures, err)
						ok = false
					} else {
						out.records[ci] = append(out.records[ci], rec)
						out.phase.job(rec.lat)
					}
					mu.Unlock()
				}
				if ok {
					mu.Lock()
					out.phase.cycle(time.Since(t0))
					mu.Unlock()
				}
			}
		}(ci)
	}
	wg.Wait()
	out.phase.end()
	if scrape {
		if out.after, err = probe.Metrics(ctx); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// submission is the request body of a cycle job; a warm job resubmits
// the cycle's sweep.
func submission(rec *jobRecord, sweepBody []byte, sweepRec *jobRecord) ([]byte, error) {
	switch rec.kind {
	case kindRun:
		slots := int64(lineSlots)
		return json.Marshal(api.SubmitRequest{Name: "line-stochastic", Slots: &slots, Seed: &rec.seed})
	case kindSweep:
		sc := sweep64Spec(rec.seed)
		return json.Marshal(api.SubmitRequest{Scenario: &sc})
	default:
		if sweepRec == nil {
			return nil, errors.New("warm job without a finished sweep")
		}
		rec.seed = sweepRec.seed
		return sweepBody, nil
	}
}

// checkCached checks that cold jobs ran and warm jobs were served from
// the cache with their cold job's exact document.
func checkCached(rec, sweepRec *jobRecord) error {
	if rec.kind != kindWarm {
		if rec.cached {
			return fmt.Errorf("cold %s job (seed %d) was served from the cache", rec.kind, rec.seed)
		}
		return nil
	}
	if !rec.cached {
		return fmt.Errorf("warm resubmission (seed %d) missed the cache", rec.seed)
	}
	if rec.digest != sweepRec.digest {
		return fmt.Errorf("warm resubmission (seed %d) differs from its cold job's result", rec.seed)
	}
	return nil
}

// libraryCheck runs every cold job's spec through the library's
// Plan.Execute and checks the daemon returned the same document. It
// returns the library wall time per job, and the unit results of the
// first few jobs for the encode and cache replay.
func libraryCheck(ctx context.Context, r *report, jobs [][]*jobRecord) (map[*jobRecord]time.Duration, []*dynsched.SimResult) {
	walls := map[*jobRecord]time.Duration{}
	var units []*dynsched.SimResult
	replayed := map[string]int{}
	for _, cj := range jobs {
		for _, j := range cj {
			if j.kind == kindWarm {
				continue
			}
			sc, err := j.spec()
			if err != nil {
				r.problem("%v", err)
				continue
			}
			t0 := time.Now()
			p, err := sc.Plan(1)
			if err != nil {
				r.problem("library plan for %s job: %v", j.kind, err)
				continue
			}
			pr, err := p.Execute(ctx, dynsched.ExecOptions{})
			walls[j] = time.Since(t0)
			if err != nil {
				r.problem("library run of %s job: %v", j.kind, err)
				continue
			}
			var doc any = pr.Run
			var res []*dynsched.SimResult
			if j.kind == kindSweep {
				doc = pr
				if err := checkPlan(pr); err != nil {
					r.problem("library sweep: %v", err)
				}
				for _, pt := range pr.Points {
					res = append(res, pt.Result)
				}
			} else {
				if err := checkRun(pr.Run); err != nil {
					r.problem("library run: %v", err)
				}
				res = append(res, pr.Run)
			}
			data, err := json.Marshal(doc)
			if err != nil {
				r.problem("marshal library result: %v", err)
				continue
			}
			if sha256.Sum256(data) != j.digest {
				r.problem("daemon %s job (seed %d) differs from the library result", j.kind, j.seed)
			}
			if replayed[j.kind] < replayJobs {
				replayed[j.kind]++
				units = append(units, res...)
			}
		}
	}
	return walls, units
}

// sameAcrossPhases checks that a job both phases ran got the same
// document in each.
func sameAcrossPhases(r *report, a, b *daemonPhase) {
	for ci := range a.records {
		for i, j := range a.records[ci] {
			if i >= len(b.records[ci]) {
				break
			}
			if k := b.records[ci][i]; k.seed == j.seed && k.kind == j.kind && k.digest != j.digest {
				r.problem("traced %s job (seed %d) differs from its untraced run", j.kind, j.seed)
			}
		}
	}
}

func runDaemon(ctx context.Context, o runOpts) (*report, error) {
	r := newReport()
	setup := make([]float64, 0, daemonSetups)
	for i := 0; i < daemonSetups; i++ {
		dm, d, err := startDaemon(o.stateDir)
		if err != nil {
			return nil, err
		}
		dm.stop()
		setup = append(setup, d.Seconds())
	}
	record := func(p *daemonPhase) {
		for _, cj := range p.records {
			for range cj {
				r.op(nil)
			}
		}
		for _, err := range p.failures {
			r.op(err)
		}
	}

	if !o.trace {
		p, err := runDaemonPhase(ctx, o, o.seconds, false)
		if err != nil {
			return nil, err
		}
		record(p)
		p.endToEnd(r, setup)
		libraryCheck(ctx, r, p.records)
		return r, nil
	}

	pu, err := runDaemonPhase(ctx, o, o.seconds/2, false)
	if err != nil {
		return nil, err
	}
	pt, err := runDaemonPhase(ctx, o, o.seconds/2, true)
	if err != nil {
		return nil, err
	}
	record(pu)
	record(pt)
	sameAcrossPhases(r, pu, pt)
	libraryCheck(ctx, r, pu.records)
	walls, units := libraryCheck(ctx, r, pt.records)

	zeroLayers(r)
	pt.runtimeLayer(r)
	jobs := float64(pt.jobs)
	var submitMs, queueMs, execMs, fetchMs, sweepMs, warmMs []float64
	var nonSim float64
	var cold int
	for _, cj := range pt.records {
		for _, j := range cj {
			submitMs = append(submitMs, ms(j.submit))
			fetchMs = append(fetchMs, ms(j.fetch))
			switch j.kind {
			case kindSweep:
				sweepMs = append(sweepMs, ms(j.lat))
			case kindWarm:
				warmMs = append(warmMs, ms(j.lat))
			}
			if j.hasExec {
				queueMs = append(queueMs, ms(j.queueWait))
				execMs = append(execMs, ms(j.exec))
			}
			if w, ok := walls[j]; ok {
				nonSim += (j.lat - w).Seconds()
				cold++
			}
		}
	}
	delta := func(series string) float64 { return pt.after.Family(series) - pt.before.Family(series) }
	hits, misses := delta("dynsched_cache_hits_total"), delta("dynsched_cache_misses_total")
	r.metrics["server.submit_p50_ms"] = median(submitMs)
	r.metrics["server.queue_wait_p50_ms"] = median(queueMs)
	r.metrics["server.exec_p50_ms"] = median(execMs)
	r.metrics["server.fetch_p50_ms"] = median(fetchMs)
	r.metrics["server.job_p99_ms"] = quantile(pt.latMs, 0.99)
	r.metrics["server.sweep_p50_ms"] = median(sweepMs)
	r.metrics["server.warm_p50_ms"] = median(warmMs)
	r.metrics["server.non_sim_s"] = ratio(nonSim, float64(cold))
	r.metrics["plan.unit_busy_s"] = delta("dynsched_plan_unit_seconds_sum") / jobs
	r.metrics["plan.unit_p50_ms"] = 1e3 * histQuantile(pt.before, pt.after, "dynsched_plan_unit_seconds", 0.5)
	r.metrics["plan.unit_p99_ms"] = 1e3 * histQuantile(pt.before, pt.after, "dynsched_plan_unit_seconds", 0.99)
	r.metrics["cache.hit_ratio"] = ratio(hits, hits+misses)
	r.metrics["journal.appends_per_job"] = delta("dynsched_journal_appends_total") / jobs
	r.metrics["journal.fsyncs_per_job"] = delta("dynsched_journal_fsyncs_total") / jobs
	r.metrics["trace.overhead_ratio"] = ratio(median(pt.latMs), median(pu.latMs))
	encodeMs, putMs, putBytes, err := replayWrites(o.stateDir, units)
	if err != nil {
		return nil, err
	}
	r.metrics["server.encode_ms"] = encodeMs
	r.metrics["cache.put_ms"] = putMs
	r.metrics["cache.put_bytes"] = putBytes
	return r, nil
}

// replayWrites times the daemon's per-unit write path outside it:
// json.Marshal of each unit result, then Put into a fresh cache with a
// spill directory. It returns mean milliseconds per encode and per put
// and mean bytes per put.
func replayWrites(stateRoot string, units []*dynsched.SimResult) (encodeMs, putMs, putBytes float64, err error) {
	if len(units) == 0 {
		return 0, 0, 0, errors.New("no unit results to replay")
	}
	dir, err := os.MkdirTemp(stateRoot, "replay-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	docs := make([][]byte, len(units))
	t0 := time.Now()
	for i, u := range units {
		if docs[i], err = json.Marshal(u); err != nil {
			return 0, 0, 0, err
		}
	}
	encode := time.Since(t0)
	cache := server.NewCache(256, dir, 0)
	var bytesPut int
	t1 := time.Now()
	for i, doc := range docs {
		cache.Put(strconv.Itoa(i), doc)
		bytesPut += len(doc)
	}
	put := time.Since(t1)
	n := float64(len(units))
	return ms(encode) / n, ms(put) / n, float64(bytesPut) / n, nil
}

// histQuantile estimates the q-quantile of the observations a
// Prometheus histogram gained between two scrapes, interpolating
// linearly inside the bucket that holds it.
func histQuantile(before, after ctl.Metrics, family string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := family + `_bucket{le="`
	for series, v := range after {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(series, prefix), `"}`), 64)
		if err != nil {
			continue // the +Inf bucket
		}
		bs = append(bs, bucket{le, v - before[series]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := after[family+"_count"] - before[family+"_count"]
	if total == 0 || len(bs) == 0 {
		return 0
	}
	rank := q * total
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if b.n == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.n-prev)
		}
		lo, prev = b.le, b.n
	}
	return bs[len(bs)-1].le
}
