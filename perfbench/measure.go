package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0: a layer a workload bypasses counts 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cycleWork is what one closed-loop client completes per cycle of its
// loop: one grid4k run, one sweep64 plan, or one daemon [run, sweep,
// warm] round.
type cycleWork struct{ jobs, units, slots int64 }

// phase measures one closed-loop timed phase: wall time, per-job
// latencies, per-cycle durations and the Go runtime's allocation and GC
// counters across it.
type phase struct {
	clients       int
	per           cycleWork
	start         time.Time
	wall          time.Duration
	jobs          int
	latMs         []float64
	cycleS        []float64
	before, after runtime.MemStats
	liveHeap      uint64 // heap in use after a forced GC at the end
}

func startPhase(clients int, per cycleWork) *phase {
	p := &phase{clients: clients, per: per}
	runtime.GC()
	runtime.ReadMemStats(&p.before)
	p.start = time.Now()
	return p
}

func (p *phase) job(lat time.Duration) {
	p.jobs++
	p.latMs = append(p.latMs, ms(lat))
}

func (p *phase) cycle(d time.Duration) { p.cycleS = append(p.cycleS, d.Seconds()) }

func (p *phase) end() {
	p.wall = time.Since(p.start)
	runtime.ReadMemStats(&p.after)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	p.liveHeap = live.HeapAlloc
}

// endToEnd fills the end-to-end metrics from an untraced phase. The
// rates are the clients' work per cycle over the median cycle time: a
// closed loop's throughput, estimated so that a burst of load from
// outside the benchmark during a few cycles does not move it.
func (p *phase) endToEnd(r *report, setupS []float64) {
	rate := float64(p.clients) / median(p.cycleS)
	r.metrics["setup_s"] = median(setupS)
	r.metrics["slots_per_s"] = rate * float64(p.per.slots)
	r.metrics["units_per_s"] = rate * float64(p.per.units)
	r.metrics["jobs_per_s"] = rate * float64(p.per.jobs)
	r.metrics["job_p50_ms"] = quantile(p.latMs, 0.5)
	r.metrics["job_p90_ms"] = quantile(p.latMs, 0.9)
	r.metrics["alloc_mb"] = ratio(float64(p.after.TotalAlloc-p.before.TotalAlloc)/1e6, float64(p.jobs))
	r.metrics["live_heap_mb"] = float64(p.liveHeap) / 1e6
	r.metrics["ok_share"] = ratio(float64(r.attempted-r.failed), float64(r.attempted))
}

// runtimeLayer fills the Go runtime's per-job counters from a traced
// phase.
func (p *phase) runtimeLayer(r *report) {
	jobs := float64(p.jobs)
	r.metrics["runtime.mallocs"] = ratio(float64(p.after.Mallocs-p.before.Mallocs), jobs)
	r.metrics["runtime.gc_cycles"] = ratio(float64(p.after.NumGC-p.before.NumGC), jobs)
	r.metrics["runtime.gc_pause_s"] = ratio(float64(p.after.PauseTotalNs-p.before.PauseTotalNs)/1e9, jobs)
}

// zeroLayers sets every per-layer metric to 0; each workload then
// fills the layers it exercises.
func zeroLayers(r *report) {
	for _, s := range perLayer {
		r.metrics[s.Name] = 0
	}
}

// hostInfo describes the machine a run measured on.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	StateFS    string `json:"stateFS"`
}

func describeHost(stateDir string) (hostInfo, error) {
	fs, err := fsType(stateDir)
	if err != nil {
		return hostInfo{}, err
	}
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		StateFS:    fs,
	}, nil
}

// cpuModel reads the processor name from /proc/cpuinfo where there is
// one, else the architecture.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
