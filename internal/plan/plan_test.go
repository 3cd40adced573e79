package plan

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func mkUnits(n int) []Unit {
	units := make([]Unit, n)
	for i := range units {
		units[i] = Unit{Index: i, Key: fmt.Sprintf("key-%d", i), Label: fmt.Sprintf("unit %d", i)}
	}
	return units
}

// TestExecuteBitIdenticalAcrossPoolSizes pins the determinism contract:
// the recorded values are identical for every worker count.
func TestExecuteBitIdenticalAcrossPoolSizes(t *testing.T) {
	units := mkUnits(37)
	run := func(_ context.Context, u Unit) (int, error) { return u.Index * u.Index, nil }
	var want []int
	for _, parallel := range []int{1, 2, 4, 0} {
		out, err := Execute(context.Background(), units, Options[int]{Parallel: parallel}, run)
		if err != nil {
			t.Fatal(err)
		}
		if out.NumDone != len(units) || out.NumCached != 0 {
			t.Fatalf("parallel=%d: done=%d cached=%d", parallel, out.NumDone, out.NumCached)
		}
		if want == nil {
			want = out.Values
			continue
		}
		for i := range want {
			if out.Values[i] != want[i] {
				t.Fatalf("parallel=%d: value[%d]=%d, want %d", parallel, i, out.Values[i], want[i])
			}
		}
	}
}

// TestExecuteLookupShortCircuit: cached units are served without
// running, and only the misses reach the pool.
func TestExecuteLookupShortCircuit(t *testing.T) {
	units := mkUnits(8)
	var ran atomic.Int64
	out, err := Execute(context.Background(), units, Options[int]{
		Parallel: 4,
		Lookup: func(u Unit) (int, bool) {
			if u.Index%2 == 0 {
				return -u.Index, true
			}
			return 0, false
		},
	}, func(_ context.Context, u Unit) (int, error) {
		ran.Add(1)
		return u.Index, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("ran %d units, want 4", got)
	}
	if out.NumCached != 4 || out.NumDone != 8 {
		t.Fatalf("cached=%d done=%d", out.NumCached, out.NumDone)
	}
	for i := range units {
		wantCached := i%2 == 0
		if out.Cached[i] != wantCached {
			t.Fatalf("unit %d cached=%v", i, out.Cached[i])
		}
		want := i
		if wantCached {
			want = -i
		}
		if out.Values[i] != want {
			t.Fatalf("unit %d value=%d want %d", i, out.Values[i], want)
		}
	}
}

// TestExecuteOnUnitOrdered: the completion stream carries monotonically
// increasing Done counts, cache hits arrive first in unit order, and
// the final Progress covers the whole plan.
func TestExecuteOnUnitOrdered(t *testing.T) {
	units := mkUnits(16)
	var stream []Progress
	var cachedSeen []int
	out, err := Execute(context.Background(), units, Options[int]{
		Parallel: 4,
		Lookup: func(u Unit) (int, bool) {
			return 0, u.Index < 3
		},
		OnUnit: func(u Unit, _ int, cached bool, err error, p Progress) {
			if err != nil {
				t.Errorf("unit %d errored: %v", u.Index, err)
			}
			if cached {
				cachedSeen = append(cachedSeen, u.Index)
			}
			stream = append(stream, p)
		},
	}, func(_ context.Context, u Unit) (int, error) { return u.Index, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) != 16 {
		t.Fatalf("streamed %d completions", len(stream))
	}
	for i, p := range stream {
		if p.Done != i+1 || p.Total != 16 {
			t.Fatalf("completion %d reported %+v", i, p)
		}
	}
	if fmt.Sprint(cachedSeen) != "[0 1 2]" {
		t.Fatalf("cache hits streamed as %v", cachedSeen)
	}
	if last := stream[len(stream)-1]; last.Cached != 3 {
		t.Fatalf("final progress %+v", last)
	}
	if out.NumDone != 16 || out.NumCached != 3 {
		t.Fatalf("outcome done=%d cached=%d", out.NumDone, out.NumCached)
	}
}

// TestExecuteFirstErrorByIndex: the reported error is the lowest-index
// real failure, wrapped in *UnitError, regardless of completion order.
func TestExecuteFirstErrorByIndex(t *testing.T) {
	units := mkUnits(10)
	boom := errors.New("boom")
	_, err := Execute(context.Background(), units, Options[int]{Parallel: 4}, func(_ context.Context, u Unit) (int, error) {
		if u.Index == 3 || u.Index == 7 {
			return 0, fmt.Errorf("unit-%d: %w", u.Index, boom)
		}
		return u.Index, nil
	})
	var ue *UnitError
	if !errors.As(err, &ue) {
		t.Fatalf("error %v is not a UnitError", err)
	}
	if ue.Unit.Index != 3 {
		t.Fatalf("reported unit %d, want 3", ue.Unit.Index)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error chain lost the cause: %v", err)
	}
}

// TestExecuteCancellation: a cancelled plan reports the completed
// subset and the context error, and in-flight units see their derived
// contexts cancelled. Every unit but unit 0 waits until unit 0 has
// cancelled the plan, so the bound holds however the scheduler
// interleaves the two workers.
func TestExecuteCancellation(t *testing.T) {
	units := mkUnits(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan struct{})
	var done atomic.Int64
	out, err := Execute(ctx, units, Options[int]{Parallel: 2}, func(uctx context.Context, u Unit) (int, error) {
		if u.Index == 0 {
			cancel()
			close(cancelled)
		} else {
			<-cancelled
		}
		if n := done.Add(1); n > 8 {
			// The pool must stop claiming units long before the end.
			t.Errorf("unit %d still ran after cancellation", u.Index)
		}
		return u.Index, uctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if out.NumDone >= len(units) {
		t.Fatal("cancelled plan claims full completion")
	}
	for i := range units {
		if out.Done[i] && out.Errs[i] != nil {
			t.Fatalf("unit %d both done and errored", i)
		}
	}
}

// TestExecutePreCancelled: a context cancelled before Execute runs
// nothing and reports it.
func TestExecutePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := Execute(ctx, mkUnits(5), Options[int]{
		Lookup: func(Unit) (int, bool) { t.Error("lookup ran after cancellation"); return 0, false },
	}, func(_ context.Context, u Unit) (int, error) {
		t.Errorf("unit %d ran after cancellation", u.Index)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v", err)
	}
	if out.NumDone != 0 {
		t.Fatalf("done=%d", out.NumDone)
	}
}

// TestExecuteEmpty: an empty plan succeeds vacuously.
func TestExecuteEmpty(t *testing.T) {
	out, err := Execute(context.Background(), nil, Options[int]{}, func(_ context.Context, u Unit) (int, error) {
		return 0, nil
	})
	if err != nil || out.NumDone != 0 {
		t.Fatalf("out=%+v err=%v", out, err)
	}
}

// TestExecutePartialValueOnError: a unit that returns a value alongside
// its error (a cancelled simulation's partial result) has the value
// recorded without being counted done.
func TestExecutePartialValueOnError(t *testing.T) {
	units := mkUnits(1)
	out, _ := Execute(context.Background(), units, Options[int]{Parallel: 1}, func(_ context.Context, u Unit) (int, error) {
		return 42, errors.New("partial")
	})
	if out.Values[0] != 42 || out.Done[0] {
		t.Fatalf("outcome %+v", out)
	}
}
