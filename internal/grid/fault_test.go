package grid

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"disarcloud/internal/alm"
)

// flakyExecutor fails the first `failures` ExecuteRange calls across all
// workers, then behaves like the real engine — a transient-fault model.
type flakyExecutor struct {
	inner    *Engine
	failures *atomic.Int64
}

func (f *flakyExecutor) ExecuteRange(ctx context.Context, job *alm.JobValuer, from, to int, onDone func()) ([][]float64, error) {
	if f.failures.Add(-1) >= 0 {
		return nil, errors.New("injected transient fault")
	}
	return f.inner.ExecuteRange(ctx, job, from, to, onDone)
}

func TestTransientFaultsAbsorbedByRetry(t *testing.T) {
	blocks := testBlocks(t)
	want, err := RunSequential(context.Background(), blocks, 42)
	if err != nil {
		t.Fatal(err)
	}

	// Four injected failures against MaxRetries=4: even if one unlucky
	// slice absorbs every failure it still succeeds on its fifth attempt,
	// so the run must come out clean and numerically identical.
	var failures atomic.Int64
	failures.Store(4)
	m := &Master{
		Workers:    3,
		Seed:       42,
		MaxRetries: 4,
		newExecutor: func(seed uint64) executor {
			return &flakyExecutor{inner: NewEngine(seed), failures: &failures}
		},
	}
	got, err := m.Run(context.Background(), blocks)
	if err != nil {
		t.Fatalf("retries did not absorb transient faults: %v", err)
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("missing block %s", id)
		}
		if g.BEL != w.BEL || g.SCR != w.SCR {
			t.Fatalf("block %s: faulty run changed the numbers (BEL %v vs %v)",
				id, g.BEL, w.BEL)
		}
	}
}

// midSliceFlakyExecutor completes a prefix of every doomed slice — invoking
// onDone for each finished path, exactly like the real engine — before
// erroring out. This is the fault shape that exposed the progress
// double-count: the retry recomputes (and used to re-report) the prefix.
type midSliceFlakyExecutor struct {
	inner    *Engine
	failures *atomic.Int64
}

func (f *midSliceFlakyExecutor) ExecuteRange(ctx context.Context, job *alm.JobValuer, from, to int, onDone func()) ([][]float64, error) {
	if f.failures.Add(-1) >= 0 {
		// Walk a real prefix of the slice, reporting per-path progress, then
		// die "mid-slice" with the work discarded.
		prefix := (to - from + 1) / 2
		if prefix > 0 {
			if _, err := f.inner.ExecuteRange(ctx, job, from, from+prefix, onDone); err != nil {
				return nil, err
			}
		}
		return nil, errors.New("injected mid-slice fault")
	}
	return f.inner.ExecuteRange(ctx, job, from, to, onDone)
}

func TestRetriedSliceDoesNotOvercountProgress(t *testing.T) {
	blocks := testBlocks(t)
	want, err := RunSequential(context.Background(), blocks, 42)
	if err != nil {
		t.Fatal(err)
	}

	var failures atomic.Int64
	failures.Store(3)
	perBlock := map[string]int{}
	totals := map[string]int{}
	m := &Master{
		Workers:    3,
		Seed:       42,
		MaxRetries: 4,
		OnProgress: func(ev Progress) {
			// OnProgress calls are serialised by the master, no lock needed.
			perBlock[ev.BlockID]++
			totals[ev.BlockID] = ev.Total
			if ev.Done > ev.Total {
				t.Errorf("block %s: Done %d exceeds Total %d", ev.BlockID, ev.Done, ev.Total)
			}
			if ev.Done != perBlock[ev.BlockID] {
				t.Errorf("block %s: Done %d after %d events", ev.BlockID, ev.Done, perBlock[ev.BlockID])
			}
		},
		newExecutor: func(seed uint64) executor {
			return &midSliceFlakyExecutor{inner: NewEngine(seed), failures: &failures}
		},
	}
	got, err := m.Run(context.Background(), blocks)
	if err != nil {
		t.Fatalf("retries did not absorb mid-slice faults: %v", err)
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("missing block %s", id)
		}
		if g.BEL != w.BEL || g.SCR != w.SCR {
			t.Fatalf("block %s: faulty run changed the numbers (BEL %v vs %v)", id, g.BEL, w.BEL)
		}
	}
	// Every block must have reported EXACTLY its outer-path total: each path
	// once, no replays from the failed attempts' completed prefixes.
	if len(perBlock) != 3 {
		t.Fatalf("progress events for %d blocks of the three-block job", len(perBlock))
	}
	for id, n := range perBlock {
		if n != totals[id] {
			t.Errorf("block %s: %d progress events for %d outer paths", id, n, totals[id])
		}
	}
}

func TestPermanentFaultFailsTheRun(t *testing.T) {
	blocks := testBlocks(t)
	var failures atomic.Int64
	failures.Store(1 << 30) // everything fails forever
	m := &Master{
		Workers:    2,
		Seed:       1,
		MaxRetries: 1,
		newExecutor: func(seed uint64) executor {
			return &flakyExecutor{inner: NewEngine(seed), failures: &failures}
		},
	}
	if _, err := m.Run(context.Background(), blocks); err == nil {
		t.Fatal("permanent faults must fail the run")
	}
}

func TestZeroRetriesStillWorksWhenHealthy(t *testing.T) {
	blocks := testBlocks(t)
	m := &Master{Workers: 2, Seed: 7} // MaxRetries zero by default
	if _, err := m.Run(context.Background(), blocks); err != nil {
		t.Fatal(err)
	}
}
