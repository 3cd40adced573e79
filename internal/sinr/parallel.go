package sinr

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Intra-slot parallelism thresholds. Slots (or solver systems) below
// these sizes resolve serially: the fan-out fixed cost only pays for
// itself on large working sets. Declared as variables so tests can
// lower them to exercise the parallel paths on small inputs.
var (
	// parallelMinTx is the minimum slot size (len(tx)) before a
	// resolver shards the per-link loop across workers.
	parallelMinTx = 256
	// parallelMinRows is the minimum system size k before the
	// power-control solver fans out its gain-row build and shed sums.
	parallelMinRows = 128
	// parallelMinIterRows is the minimum k before each fixed-point
	// iteration pass fans out (the per-iteration barrier costs more
	// than the one-shot phases, so the threshold is higher).
	parallelMinIterRows = 512
)

// maxPoolWorkers bounds the process-wide worker pool. Workers are
// spawned lazily and parked forever, so this is a ceiling on goroutines
// ever created, not a steady cost.
const maxPoolWorkers = 256

// chunkRunner is the work body of a parallel fan-out: runChunks claims
// contiguous index ranges from the active job until none remain. slot
// identifies the participating goroutine (0 = the dispatcher) so
// implementations can use per-worker scratch without allocation.
type chunkRunner interface {
	runChunks(slot int)
}

// parJob is one fan-out over [0, n): a chunked atomic work cursor plus
// the completion group. It is embedded in long-lived resolver scratch
// and reused across slots, so dispatching allocates nothing.
type parJob struct {
	wg     sync.WaitGroup
	next   atomic.Int64 // claim cursor, advanced in grain-sized steps
	slot   atomic.Int64 // worker-slot allocator (dispatcher holds 0)
	n      int
	grain  int
	runner chunkRunner
}

// claim takes the next contiguous chunk, returning lo = -1 when the
// range is exhausted. Chunk boundaries never affect results — each
// index is processed exactly once, by exactly one claimant, with the
// serial per-index operation sequence — so chunking (and therefore
// timing) is invisible in the output.
func (j *parJob) claim() (lo, hi int) {
	lo = int(j.next.Add(int64(j.grain))) - j.grain
	if lo >= j.n {
		return -1, -1
	}
	hi = lo + j.grain
	if hi > j.n {
		hi = j.n
	}
	return lo, hi
}

// The process-wide parked worker pool. Workers are plain goroutines
// blocked on an unbuffered channel receive; waking one is a single
// channel send with no allocation. The pool is global (not per model)
// so a process running many models/replications shares one bounded set
// of goroutines.
var (
	poolCh   = make(chan *parJob)
	poolSize atomic.Int64
)

// poolWorker parks on poolCh forever, running each delivered job to
// exhaustion. It is a zero-argument top-level function so spawning it
// captures nothing.
func poolWorker() {
	for j := range poolCh {
		slot := int(j.slot.Add(1))
		j.runner.runChunks(slot)
		j.wg.Done()
	}
}

// trySpawnPoolWorker grows the pool by one worker unless the ceiling is
// reached.
func trySpawnPoolWorker() {
	for {
		sz := poolSize.Load()
		if sz >= maxPoolWorkers {
			return
		}
		if poolSize.CompareAndSwap(sz, sz+1) {
			go poolWorker()
			return
		}
	}
}

// runParallel fans runner.runChunks over [0, n) across up to workers
// goroutines: the caller always participates (slot 0), and up to
// workers-1 pool workers are recruited. Recruitment prefers an already
// parked worker (non-blocking send), spawns a new one below the pool
// ceiling otherwise, and falls back to a blocking hand-off when the
// pool is saturated — every recruited helper is guaranteed to run, and
// with zero helpers the caller simply completes the job alone, so the
// call never deadlocks and performs no allocations in steady state.
// runParallel returns only after every chunk has been processed.
func runParallel(j *parJob, runner chunkRunner, n, workers int) {
	j.runner = runner
	j.n = n
	j.grain = grainFor(n, workers)
	j.next.Store(0)
	j.slot.Store(0)
	helpers := workers - 1
	// Never recruit more helpers than there are chunks beyond the
	// dispatcher's first.
	if maxHelpers := (n+j.grain-1)/j.grain - 1; helpers > maxHelpers {
		helpers = maxHelpers
	}
	for h := 0; h < helpers; h++ {
		j.wg.Add(1)
		select {
		case poolCh <- j:
		default:
			trySpawnPoolWorker()
			poolCh <- j
		}
	}
	runner.runChunks(0)
	j.wg.Wait()
	j.runner = nil
}

// grainFor picks the claim-chunk size: about four claims per worker to
// smooth imbalance, but never below 64 indices so the atomic cursor
// stays cold relative to the per-index work.
func grainFor(n, workers int) int {
	g := n / (workers * 4)
	if g < 64 {
		g = 64
	}
	return g
}

// defaultWorkers is the intra-slot worker count of a model's default
// resolvers: one per CPU the Go scheduler may use.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }
