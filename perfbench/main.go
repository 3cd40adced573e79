// Command perfbench is dynsched's end-to-end benchmark. It measures the
// three levels at which dynsched simulates the paper's protocol — per
// slot, per plan unit and per daemon job — on one workload each, and
// checks every output it measures:
//
//	grid4k   Compile + Run of the registered sinr-grid-4k scenario
//	sweep64  library Plan.Execute of a 64-point λ sweep on a 6-node line
//	daemon   two closed-loop clients against an in-process dynschedd
//
// Run one workload (the checkout root is the working directory):
//
//	bash perfbench/run.sh --workload daemon --seed 3 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with no
// tracing attached; with --trace 1 it prints the per-layer metrics of a
// separate traced phase. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Any failed
// output check makes the run exit non-zero.
//
// --manifest prints BENCHMARK.json, the workload and metric catalogue
// this program defines; perfbench/README.md explains each entry.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"time"
)

// runSeconds is how long one run measures; BENCHMARK.json records it.
const runSeconds = 30

// runOpts is one invocation's workload input.
type runOpts struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	stateDir string // where the daemon workload keeps its state
}

type workload struct {
	name string
	why  string
	run  func(ctx context.Context, o runOpts) (*report, error)
}

var workloads = []workload{
	{"grid4k", "per-slot layers: 4096-link SINR grid, 20000 slots; injection, the Spread executor and the resolver do the work", runGrid4k},
	{"sweep64", "per-unit overhead: a 64-point sweep of short line runs; plan build, hashing, compile and allocation dominate", runSweep64},
	{"daemon", "per-job layers: two closed-loop clients on dynschedd; submit, queue, result encode, journal fsyncs, fetch and warm cache reads", runDaemon},
}

// metricSpec is one catalogue entry. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// have none.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd metrics are reported by every workload from untraced phases.
// A "job" is the workload's request: one grid4k run, one sweep64 plan,
// one daemon job.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", bound(0.25)},
	{"slots_per_s", "1/s", "higher", bound(0.25)},
	{"units_per_s", "1/s", "higher", bound(0.25)},
	{"jobs_per_s", "1/s", "higher", bound(0.25)},
	{"job_p50_ms", "ms", "lower", bound(0.25)},
	{"job_p90_ms", "ms", "lower", bound(0.25)},
	{"alloc_mb", "MB", "lower", bound(0.1)},
	{"live_heap_mb", "MB", "lower", bound(0.2)},
	{"ok_share", "ratio", "higher", bound(0.01)},
}

// perLayer metrics come from the traced phase, per job unless the name
// says otherwise; a layer a workload bypasses reports 0.
var perLayer = []metricSpec{
	{"inject.step_s", "s", "lower", nil},
	{"inject.packets", "count", "higher", nil},
	{"inject.ns_per_gen_slot", "ns", "lower", nil},
	{"core.slot_s", "s", "lower", nil},
	{"core.inject_s", "s", "lower", nil},
	{"core.feedback_s", "s", "lower", nil},
	{"core.tx", "count", "higher", nil},
	{"interference.resolve_s", "s", "lower", nil},
	{"interference.success_ratio", "ratio", "higher", nil},
	{"geom.grid_rebuilds", "count", "lower", nil},
	{"geom.grid_delta_updates", "count", "higher", nil},
	{"sim.self_s", "s", "lower", nil},
	{"cli.compile_s", "s", "lower", nil},
	{"plan.build_s", "s", "lower", nil},
	{"plan.unit_p50_ms", "ms", "lower", nil},
	{"plan.unit_p99_ms", "ms", "lower", nil},
	{"plan.idle_s", "s", "lower", nil},
	{"plan.aggregate_s", "s", "lower", nil},
	{"plan.unit_busy_s", "s", "lower", nil},
	{"runtime.mallocs", "count", "lower", nil},
	{"runtime.gc_cycles", "count", "lower", nil},
	{"runtime.gc_pause_s", "s", "lower", nil},
	{"server.submit_p50_ms", "ms", "lower", nil},
	{"server.queue_wait_p50_ms", "ms", "lower", nil},
	{"server.exec_p50_ms", "ms", "lower", nil},
	{"server.fetch_p50_ms", "ms", "lower", nil},
	{"server.job_p99_ms", "ms", "lower", nil},
	{"server.non_sim_s", "s", "lower", nil},
	{"server.encode_ms", "ms", "lower", nil},
	{"server.sweep_p50_ms", "ms", "lower", nil},
	{"server.warm_p50_ms", "ms", "lower", nil},
	{"cache.put_ms", "ms", "lower", nil},
	{"cache.put_bytes", "bytes", "lower", nil},
	{"cache.hit_ratio", "ratio", "higher", nil},
	{"journal.appends_per_job", "count", "lower", nil},
	{"journal.fsyncs_per_job", "count", "lower", nil},
	{"trace.overhead_ratio", "ratio", "lower", nil},
}

// manifest is the BENCHMARK.json document.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestLoad `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.name, w.why})
	}
	return m
}

func manifestJSON() ([]byte, error) {
	data, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// report is what a workload measured: its operations, the output
// checks that failed, and its metrics by name.
type report struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// op records one attempted operation and whether it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problem("%v", err)
	}
}

// problem records a failed output check.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: grid4k, sweep64 or daemon")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", runSeconds, "how long the timed phase runs")
	trace := flag.Int("trace", 0, "1 = report the per-layer metrics of a traced phase instead of the end-to-end metrics")
	stateDir := flag.String("state-dir", ".bench_build/state", "directory for the daemon workload's journal and cache")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()

	if *printManifest {
		data, err := manifestJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q (want grid4k, sweep64 or daemon)", *name))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, not %d", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	if err := os.MkdirAll(*stateDir, 0o755); err != nil {
		fatal(err)
	}
	o := runOpts{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, stateDir: *stateDir}

	host, err := describeHost(*stateDir)
	if err != nil {
		fatal(err)
	}
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
	}
	r, err := w.run(context.Background(), o)
	pprof.StopCPUProfile()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	out := resultLine{Correct: r.failed == 0 && len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", w.name, p)
	}
	for _, s := range specs {
		v, ok := r.metrics[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if out.Correct {
				fatal(fmt.Errorf("%s: metric %s not measured", w.name, s.Name))
			}
			continue // a failed run prints what it measured
		}
		out.Metrics[s.Name] = metricOut{Value: v, Unit: s.Unit}
		fmt.Printf("%-28s %16.6f %s\n", s.Name, v, s.Unit)
	}
	if out.Attempted < 1 {
		fatal(errors.New("no operation was attempted"))
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
