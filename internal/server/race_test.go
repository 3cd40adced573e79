package server

import (
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestServerConcurrentSubmitCancel hammers the service with parallel
// submissions, duplicate specs, event streamers and racing
// cancellations. It asserts nothing deadlocks and every job reaches a
// terminal state; under -race (CI runs the suite that way) it is also
// the data-race gate for the queue, cache, and event plumbing.
func TestServerConcurrentSubmitCancel(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 4, QueueDepth: 64, ProgressEvery: 500})

	const (
		longJobs = 8 // effectively infinite; must be cancelled
		dupJobs  = 8 // one shared small spec; exercises the cache path
		fastJobs = 4 // distinct small specs run to completion
	)
	ids := make(chan string, longJobs+dupJobs+fastJobs)
	var wg sync.WaitGroup

	for i := 0; i < longJobs; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			status, job := submitScenario(t, ts, lineScenario("race-long", 500_000_000, seed))
			if status != http.StatusAccepted {
				t.Errorf("long submission status %d", status)
				return
			}
			// Cancel while queued or running — whichever the race picks.
			time.Sleep(time.Duration(seed) * time.Millisecond)
			if err := deleteJob(ts, job.ID); err != nil {
				t.Error(err)
				return
			}
			ids <- job.ID
		}(int64(i + 1))
	}
	for i := 0; i < dupJobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, job := submitScenario(t, ts, lineScenario("race-dup", 3_000, 99))
			if status != http.StatusAccepted && status != http.StatusOK {
				t.Errorf("duplicate submission status %d", status)
				return
			}
			// Follow the stream concurrently with the run.
			events := streamEvents(t, ts, job.ID)
			if len(events) == 0 {
				t.Error("empty event stream")
			}
			ids <- job.ID
		}()
	}
	for i := 0; i < fastJobs; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			status, job := submitScenario(t, ts, lineScenario("race-fast", 2_000, seed))
			if status != http.StatusAccepted && status != http.StatusOK {
				t.Errorf("fast submission status %d", status)
				return
			}
			ids <- job.ID
		}(int64(i + 100))
	}
	wg.Wait()
	close(ids)

	// Each job ends done or cancelled. The event stream ends at the
	// terminal event; a hang is bounded by go test -timeout.
	for id := range ids {
		view := getJob(t, ts, id)
		for !view.State.Terminal() {
			streamEvents(t, ts, id)
			view = getJob(t, ts, id)
		}
		if view.State == StateFailed {
			t.Errorf("job %s failed: %s", id, view.Error)
		}
	}
}
