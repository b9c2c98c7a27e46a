package grid

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"disarcloud/internal/alm"
	"disarcloud/internal/eeb"
)

// Scatter values the whole outer range of one job — on ranks of this
// process, on remote workers — and returns the gathered local values
// y1[block][0:outer), which must be bit-identical however it partitions the
// range (every path is a function of seed and index). It calls onPath (nil
// when nobody listens) once per completed outer path, from whatever
// goroutine completed it, and it owns its failure handling — retries,
// re-slicing, fallbacks: the error it returns is final.
type Scatter func(ctx context.Context, job *alm.JobValuer, onPath func()) ([][]float64, error)

// RunWith is the master loop: it validates every block, groups the type-B
// blocks into the walks they can share, and per group builds the job's
// valuer, has scatter value its outer range, and assembles the gathered
// values. Results are keyed by block ID. onProgress, when non-nil, receives
// one serialised event per block per completed path.
func RunWith(ctx context.Context, blocks []*eeb.Block, seed uint64, onProgress func(Progress), scatter Scatter) (map[string]*alm.Result, error) {
	for _, b := range blocks {
		if err := b.Validate(); err != nil {
			return nil, err
		}
	}
	progress := NewProgressCounter(onProgress)
	results := make(map[string]*alm.Result)
	for _, group := range eeb.GroupWalks(blocks) {
		job, err := alm.NewJobValuer(group, seed)
		if err != nil {
			return nil, err
		}
		y1, err := scatter(ctx, job, progress.OnPath(group))
		if err != nil {
			return nil, err
		}
		assembled, err := job.Assemble(y1)
		if err != nil {
			return nil, err
		}
		for bi, b := range group {
			results[b.ID] = assembled[bi]
		}
	}
	return results, nil
}

// ProgressCounter turns completed outer paths into Progress events: one Done
// count per block behind one mutex, the hook called under it, so events are
// serialised however many goroutines complete paths. Keep hooks fast.
type ProgressCounter struct {
	hook func(Progress)
	mu   sync.Mutex
	done map[string]int
}

// NewProgressCounter builds a counter reporting to hook, which may be nil.
func NewProgressCounter(hook func(Progress)) *ProgressCounter {
	return &ProgressCounter{hook: hook, done: make(map[string]int)}
}

// OnPath returns the callback for "one more outer path of these blocks is
// done" — one completed path of a walk is one completed path of every block
// in it — or nil when there is no hook, so walks skip the call altogether.
func (p *ProgressCounter) OnPath(blocks []*eeb.Block) func() {
	if p.hook == nil {
		return nil
	}
	return func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, b := range blocks {
			p.done[b.ID]++
			p.hook(Progress{BlockID: b.ID, Done: p.done[b.ID], Total: b.Outer})
		}
	}
}

// ForkJoin runs rank(ctx, i) for every i in [0, n), each on its own
// goroutine and at most limit at a time, and returns once all of them have
// exited. The ranks run under a context derived from ctx that the first
// failure cancels — an error returned, or a panic, which is recovered into an
// error naming the rank — and no rank starts after it. That first failure is
// what ForkJoin returns, never padded with the context.Canceled of the
// siblings it stopped. When it is the caller's own cancellation, plain
// ctx.Err() comes back so errors.Is matches; a genuine fault that raced the
// cancellation keeps its diagnostics.
func ForkJoin(ctx context.Context, n, limit int, rank func(ctx context.Context, i int) error) error {
	forked, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	fail := func(err error) {
		once.Do(func() {
			first = err
			cancel()
		})
	}
	sem := make(chan struct{}, limit)
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		if err := forked.Err(); err != nil {
			fail(err)
			break
		}
		wg.Add(1)
		go func(i int) {
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("grid: rank %d panicked: %v", i, r))
				}
				<-sem
				wg.Done()
			}()
			if err := rank(forked, i); err != nil {
				fail(err)
			}
		}(i)
	}
	wg.Wait()
	if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(first, ctxErr) {
		return ctxErr
	}
	return first
}

// CheckPart rejects what an engine returned for the slice [from, to) of a
// job unless it holds one value per block per path.
func CheckPart(part [][]float64, blocks, from, to int) error {
	if len(part) != blocks {
		return fmt.Errorf("grid: slice [%d,%d) came back with values for %d blocks, want %d", from, to, len(part), blocks)
	}
	for _, p := range part {
		if len(p) != to-from {
			return fmt.Errorf("grid: slice [%d,%d) came back with %d values for a block", from, to, len(p))
		}
	}
	return nil
}

// SplitRange partitions [0, n) into size near-equal contiguous chunks and
// returns the half-open bounds of chunk rank. Extra elements go to the lowest
// ranks.
func SplitRange(n, size, rank int) (from, to int) {
	per, rem := n/size, n%size
	from = rank*per + min(rank, rem)
	to = from + per
	if rank < rem {
		to++
	}
	return from, to
}
