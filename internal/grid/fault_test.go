package grid

import (
	"context"
	"errors"
	"testing"

	"disarcloud/internal/alm"
)

// failingExecutor fails every range it is given — a permanent fault.
type failingExecutor struct{}

func (failingExecutor) ExecuteRange(context.Context, *alm.JobValuer, int, int, func()) ([][]float64, error) {
	return nil, errors.New("injected permanent fault")
}

func TestPermanentFaultFailsTheRun(t *testing.T) {
	m := &Master{
		Workers:     2,
		Seed:        1,
		newExecutor: func(uint64) executor { return failingExecutor{} },
	}
	if _, err := m.Run(context.Background(), testBlocks(t)); err == nil {
		t.Fatal("permanent faults must fail the run")
	}
}

// The master never re-executes a range, so a healthy run must succeed on
// the first and only attempt of every rank.
func TestZeroRetriesStillWorksWhenHealthy(t *testing.T) {
	blocks := testBlocks(t)
	m := &Master{Workers: 2, Seed: 7}
	if _, err := m.Run(context.Background(), blocks); err != nil {
		t.Fatal(err)
	}
}
