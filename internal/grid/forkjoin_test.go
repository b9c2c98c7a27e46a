package grid

import (
	"context"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"disarcloud/internal/alm"
	"disarcloud/internal/leakcheck"
)

func TestSplitRangeCoversExactly(t *testing.T) {
	if err := quick.Check(func(nRaw uint16, sizeRaw uint8) bool {
		n := int(nRaw % 5000)
		size := int(sizeRaw%32) + 1
		covered := 0
		prevTo := 0
		for r := 0; r < size; r++ {
			from, to := SplitRange(n, size, r)
			if from != prevTo || to < from {
				return false
			}
			covered += to - from
			prevTo = to
		}
		return covered == n && prevTo == n
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitRangeBalance(t *testing.T) {
	// Chunk sizes differ by at most one, the extras on the lowest ranks.
	for _, tc := range []struct{ n, size int }{{10, 3}, {100, 7}, {5, 8}, {0, 4}} {
		prev := 1 << 30
		for r := 0; r < tc.size; r++ {
			from, to := SplitRange(tc.n, tc.size, r)
			sz := to - from
			if sz > prev || sz < tc.n/tc.size || sz > tc.n/tc.size+1 {
				t.Fatalf("n=%d size=%d: rank %d has %d elements after a rank with %d", tc.n, tc.size, r, sz, prev)
			}
			prev = sz
		}
	}
}

// rankExecutor runs a per-call hook instead of a valuation; a nil return
// from the hook falls through to the real engine.
type rankExecutor struct {
	inner *Engine
	hook  func(ctx context.Context, from int) error
}

func (e *rankExecutor) ExecuteRange(ctx context.Context, job *alm.JobValuer, from, to int, onDone func()) ([][]float64, error) {
	if err := e.hook(ctx, from); err != nil {
		return nil, err
	}
	return e.inner.ExecuteRange(ctx, job, from, to, onDone)
}

func hookedMaster(workers int, hook func(ctx context.Context, from int) error) *Master {
	return &Master{
		Workers: workers,
		Seed:    42,
		newExecutor: func(seed uint64) executor {
			return &rankExecutor{inner: NewEngine(seed), hook: hook}
		},
	}
}

func TestRunRecoversPanics(t *testing.T) {
	m := hookedMaster(3, func(_ context.Context, from int) error {
		if from == 0 {
			panic("deliberate")
		}
		return nil
	})
	_, err := m.Run(context.Background(), testBlocks(t))
	if err == nil || !strings.Contains(err.Error(), "rank 0 panicked: deliberate") {
		t.Fatalf("Run over a panicking rank returned %v, want an error naming rank 0", err)
	}
}

// A rank that fails for good stops its siblings: they are parked on their
// context here, so without the cancellation Run would never return.
func TestPermanentFaultStopsSiblings(t *testing.T) {
	injected := errors.New("injected permanent fault")
	m := hookedMaster(3, func(ctx context.Context, from int) error {
		if from == 0 {
			return injected
		}
		<-ctx.Done()
		return ctx.Err()
	})
	_, err := m.Run(context.Background(), testBlocks(t))
	if !errors.Is(err, injected) {
		t.Fatalf("Run returned %v, want the failed rank's error", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("Run padded the fault with the siblings' cancellation: %v", err)
	}
}

// shortExecutor drops the last value of every block's part.
type shortExecutor struct{ inner *Engine }

func (e shortExecutor) ExecuteRange(ctx context.Context, job *alm.JobValuer, from, to int, onDone func()) ([][]float64, error) {
	local, err := e.inner.ExecuteRange(ctx, job, from, to, onDone)
	for bi := range local {
		local[bi] = local[bi][:len(local[bi])-1]
	}
	return local, err
}

func TestRunRejectsShortParts(t *testing.T) {
	m := &Master{Workers: 2, Seed: 42, newExecutor: func(seed uint64) executor {
		return shortExecutor{inner: NewEngine(seed)}
	}}
	if _, err := m.Run(context.Background(), testBlocks(t)); err == nil || !strings.Contains(err.Error(), "rank") {
		t.Fatalf("Run over parts one value short returned %v, want an error naming the rank", err)
	}
}

// TestRunLeavesNoGoroutineBehind: however Run ends, every rank has exited by
// the time it returns.
func TestRunLeavesNoGoroutineBehind(t *testing.T) {
	blocks := testBlocks(t)
	cases := []struct {
		name string
		run  func() error
	}{
		{"success", func() error {
			_, err := (&Master{Workers: 5, Seed: 42}).Run(context.Background(), blocks)
			return err
		}},
		{"permanent fault", func() error {
			m := &Master{Workers: 5, Seed: 42, newExecutor: func(uint64) executor { return failingExecutor{} }}
			if _, err := m.Run(context.Background(), blocks); err == nil {
				return errors.New("permanent fault did not fail the run")
			}
			return nil
		}},
		{"cancellation", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			m := &Master{Workers: 5, Seed: 42, OnProgress: func(Progress) { cancel() }}
			if _, err := m.Run(ctx, blocks); !errors.Is(err, context.Canceled) {
				return errors.New("cancelled run did not return context.Canceled")
			}
			return nil
		}},
		{"panic", func() error {
			m := hookedMaster(5, func(context.Context, int) error { panic("deliberate") })
			if _, err := m.Run(context.Background(), blocks); err == nil {
				return errors.New("panic did not fail the run")
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			noLeak := leakcheck.Goroutines(t)
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
			noLeak()
		})
	}
}
