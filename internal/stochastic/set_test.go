package stochastic

import (
	"sync"
	"testing"

	"disarcloud/internal/leakcheck"
)

// sameBits reports whether two scenarios agree bit for bit on the grid and
// every driver path: scenariosEqual for goroutines that may not call Fatal.
func sameBits(a, b *Scenario) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for k := range x {
			if x[k] != y[k] {
				return false
			}
		}
		return true
	}
	if a.Dt != b.Dt || !eq(a.Rates, b.Rates) || !eq(a.Credit, b.Credit) || !eq(a.discount, b.discount) ||
		len(a.Equities) != len(b.Equities) || len(a.Currencies) != len(b.Currencies) {
		return false
	}
	for i := range a.Equities {
		if !eq(a.Equities[i], b.Equities[i]) {
			return false
		}
	}
	for i := range a.Currencies {
		if !eq(a.Currencies[i], b.Currencies[i]) {
			return false
		}
	}
	return true
}

// TestSetBatchedScalarAndPathSourceAgree holds the memo's two read paths to
// the plain generator: a chunk copied out of a Set, a scalar Inner of the
// same Set, a scalar Inner of a Set that never batched, and a chunk of a Set
// populated by scalar reads all serve PathSource's bits — with chunks that do
// not divide the inner count, into a fresh batch whose views start with no
// grid spacing.
func TestSetBatchedScalarAndPathSourceAgree(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"independent", testConfig()},
		{"correlated", corrTestConfig(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewGenerator(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			const seed, nOuter, nInner = 31, 3, 7
			plain := NewPathSource(g, seed)
			batched, scalar := NewSet(g, seed), NewSet(g, seed)
			b := batched.NewBatch(nil, 3)
			for i := 0; i < nOuter; i++ {
				outer := plain.Outer(i)
				scenariosEqual(t, "outer", batched.Outer(i), outer)
				for j0 := 0; j0 < nInner; j0 += b.Cap() {
					n := min(b.Cap(), nInner-j0)
					batched.InnerBatch(i, j0, n, nil, 1, b)
					if b.Len() != n {
						t.Fatalf("batch Len = %d, want %d", b.Len(), n)
					}
					for q := 0; q < n; q++ {
						want := plain.Inner(i, j0+q, outer, 1)
						scenariosEqual(t, "batched inner", b.View(q), want)
						scenariosEqual(t, "scalar view of a batched column", batched.Inner(i, j0+q, nil, 1), want)
						scenariosEqual(t, "scalar inner", scalar.Inner(i, j0+q, nil, 1), want)
					}
				}
				scalar.InnerBatch(i, 2, 3, nil, 1, b)
				for q := 0; q < 3; q++ {
					scenariosEqual(t, "batched read of scalar-made columns", b.View(q), plain.Inner(i, 2+q, outer, 1))
				}
			}
			want := int64(nOuter + nOuter*nInner)
			if got := batched.Generated(); got != want {
				t.Fatalf("batched set generated %d scenarios, want %d", got, want)
			}
			if got := scalar.Generated(); got != want {
				t.Fatalf("scalar set generated %d scenarios, want %d", got, want)
			}
		})
	}
}

// TestSetGeneratedExactUnderAnyAccessOrder walks one outer path's panel
// through sparse, out-of-order, overlapping and chunk-boundary requests —
// several of which grow the panel — and a second branch year, and checks
// after each that exactly the columns never asked for before were generated
// and that every served path, including a view handed out before the panel
// grew, still carries PathSource's bits.
func TestSetGeneratedExactUnderAnyAccessOrder(t *testing.T) {
	g, err := NewGenerator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const seed = 8
	plain := NewPathSource(g, seed)
	s := NewSet(g, seed)
	b := s.NewBatch(nil, 32)
	check := func(label string, got *Scenario, i, j int, year float64) {
		t.Helper()
		scenariosEqual(t, label, got, plain.Inner(i, j, plain.Outer(i), year))
	}
	early := s.Inner(0, 9, nil, 1)
	if got := s.Generated(); got != 2 {
		t.Fatalf("a first scalar read generated %d scenarios, want 2 (its outer and itself)", got)
	}
	for _, st := range []struct {
		name    string
		i       int
		j0, n   int // n == 0: scalar Inner(i, j0)
		year    float64
		wantGen int64
	}{
		{"out of order below the panel's only column", 0, 3, 0, 1, 1},
		{"chunk overlapping both, past the panel", 0, 2, 9, 1, 7},
		{"the same chunk again", 0, 2, 9, 1, 0},
		{"chunk across the panel's end", 0, 8, 8, 1, 5},
		{"chunk starting at the panel's end", 0, 16, 4, 1, 4},
		{"the first columns", 0, 0, 2, 1, 2},
		{"every column again", 0, 0, 20, 1, 0},
		{"a scalar read of a batched column", 0, 17, 0, 1, 0},
		{"a second branch year", 0, 0, 5, 2, 5},
		{"a scalar read in it", 0, 4, 0, 2, 0},
		{"a sparse scalar read in it", 0, 12, 0, 2, 1},
		{"another outer path, second year first", 1, 0, 0, 2, 2},
	} {
		before := s.Generated()
		if st.n == 0 {
			check(st.name, s.Inner(st.i, st.j0, nil, st.year), st.i, st.j0, st.year)
		} else {
			s.InnerBatch(st.i, st.j0, st.n, nil, st.year, b)
			for q := 0; q < st.n; q++ {
				check(st.name, b.View(q), st.i, st.j0+q, st.year)
			}
		}
		if got := s.Generated() - before; got != st.wantGen {
			t.Fatalf("%s: generated %d scenarios, want %d", st.name, got, st.wantGen)
		}
		check("a view served before the panel grew", early, 0, 9, 1)
	}
}

// TestSetConcurrentMixedAccessOnOnePath hammers two outer paths from
// goroutines that mix batched chunks of different widths and starting
// points with scalar reads walked backwards — the access pattern of a
// campaign's base and modules meeting on one path — and checks every served
// path against PathSource, that each scenario was generated exactly once,
// and that no goroutine outlives the test. Run it under -race.
func TestSetConcurrentMixedAccessOnOnePath(t *testing.T) {
	noLeak := leakcheck.Goroutines(t)
	g, err := NewGenerator(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const (
		seed    = 77
		nOuter  = 2
		nInner  = 40
		workers = 8
		reps    = 3
	)
	plain := NewPathSource(g, seed)
	want := make([][]*Scenario, nOuter)
	for i := range want {
		outer := plain.Outer(i)
		for j := 0; j < nInner; j++ {
			want[i] = append(want[i], plain.Inner(i, j, outer, 1))
		}
	}
	s := NewSet(g, seed)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := s.NewBatch(nil, 1+w%5)
			for rep := 0; rep < reps; rep++ {
				for i := 0; i < nOuter; i++ {
					if w%2 == 1 {
						for j := nInner - 1; j >= 0; j-- {
							if !sameBits(s.Inner(i, j, nil, 1), want[i][j]) {
								t.Errorf("worker %d: scalar inner (%d,%d) drifted", w, i, j)
							}
						}
						continue
					}
					for j0 := (w * 7) % nInner; j0 < nInner; j0 += b.Cap() {
						n := min(b.Cap(), nInner-j0)
						s.InnerBatch(i, j0, n, s.Outer(i), 1, b)
						for q := 0; q < n; q++ {
							if !sameBits(b.View(q), want[i][j0+q]) {
								t.Errorf("worker %d: batched inner (%d,%d) drifted", w, i, j0+q)
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if got, want := s.Generated(), int64(nOuter+nOuter*nInner); got != want {
		t.Fatalf("Generated() = %d after concurrent access, want exactly %d", got, want)
	}
	noLeak()
}
