// Package cluster turns the in-process DISAR grid into a real multi-node
// system: worker processes that register with a coordinator over plain
// TCP/HTTP, heartbeat, and execute outer-path slices shipped to them over
// the wire; a coordinator that scatters type-B blocks across the registered
// workers, re-slices the work of a lost worker onto the survivors, and
// plugs into the deployer as its BlockRunner; a node-local scenario cache
// with consistent-hash shard ownership so a stress campaign's shared
// scenario set is generated once per cluster rather than once per node; and
// knowledge-base gossip so every coordinator's self-optimizing loop trains
// on the whole cluster's measurements.
//
// Everything rides the partition-independence contract of the valuation
// engine: per-path streams are rooted at (seed, index), so any slicing of
// the outer range — including the re-slicing after a mid-run worker kill —
// produces bit-identical results.
package cluster

import (
	"errors"
	"fmt"

	"disarcloud/internal/eeb"
	"disarcloud/internal/fund"
	"disarcloud/internal/policy"
	"disarcloud/internal/stochastic"
)

// blockWire is the network representation of an eeb.Block: the plain
// workload description plus the serializable scenario-source recipe. Live
// in-process state (a Source, a panel pool) never travels — the receiving
// node rebuilds both.
type blockWire struct {
	ID          string            `json:"id"`
	Type        int               `json:"type"`
	Portfolio   *policy.Portfolio `json:"portfolio"`
	Fund        fund.Config       `json:"fund"`
	Market      stochastic.Config `json:"market"`
	Outer       int               `json:"outer"`
	Inner       int               `json:"inner"`
	Biometric   eeb.Biometric     `json:"biometric"`
	ScenarioRef *stochastic.Ref   `json:"scenarioRef,omitempty"`
}

// errUnshippable marks a block that cannot leave the process: it carries a
// live scenario source without the serializable recipe behind it.
var errUnshippable = errors.New("cluster: block carries a live scenario source without a ScenarioRef")

// encodeBlock converts a block for shipment.
func encodeBlock(b *eeb.Block) (blockWire, error) {
	if b.Scenarios != nil && b.ScenarioRef == nil {
		return blockWire{}, fmt.Errorf("%w: %s", errUnshippable, b.ID)
	}
	return blockWire{
		ID:          b.ID,
		Type:        int(b.Type),
		Portfolio:   b.Portfolio,
		Fund:        b.Fund,
		Market:      b.Market,
		Outer:       b.Outer,
		Inner:       b.Inner,
		Biometric:   b.Biometric,
		ScenarioRef: b.ScenarioRef,
	}, nil
}

// decode rebuilds the block WITHOUT its scenario source; the worker resolves
// the ref against its node-local cache separately (it needs the cluster
// membership of the moment for shard ownership). The block is validated —
// wire data is never trusted.
func (w blockWire) decode() (*eeb.Block, error) {
	b := &eeb.Block{
		ID:          w.ID,
		Type:        eeb.Type(w.Type),
		Portfolio:   w.Portfolio,
		Fund:        w.Fund,
		Market:      w.Market,
		Outer:       w.Outer,
		Inner:       w.Inner,
		Biometric:   w.Biometric,
		ScenarioRef: w.ScenarioRef,
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if w.ScenarioRef != nil {
		if err := w.ScenarioRef.Validate(); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// joinRequest registers a worker with the coordinator.
type joinRequest struct {
	// Name is the worker's stable identity (ownership on the scenario ring
	// follows it, so a restarted worker keeps its shards).
	Name string `json:"name"`
	// Addr is the worker's reachable base address, e.g. "127.0.0.1:7101".
	Addr string `json:"addr"`
	// Slots is how many slices the worker executes concurrently.
	Slots int `json:"slots"`
}

func (r joinRequest) validate() error {
	if r.Name == "" {
		return errors.New("cluster: join without a worker name")
	}
	if r.Addr == "" {
		return errors.New("cluster: join without a worker address")
	}
	if r.Slots < 1 || r.Slots > 1024 {
		return fmt.Errorf("cluster: join with slot count %d outside [1,1024]", r.Slots)
	}
	return nil
}

// joinResponse acknowledges a registration.
type joinResponse struct {
	ID string `json:"id"`
	// HeartbeatSeconds is the cadence the coordinator expects beats at; a
	// worker silent for several multiples is declared lost.
	HeartbeatSeconds float64 `json:"heartbeatSeconds"`
}

// heartbeatRequest keeps a registration alive.
type heartbeatRequest struct {
	ID string `json:"id"`
}

// maxBlocksPerSlice bounds the blocks one execute request may carry — wire
// data is never trusted, including its fan-out. A job splits into one block
// per 25 representative contracts, so this is a portfolio of 25,000.
const maxBlocksPerSlice = 1000

// executeRequest ships one outer-path slice of a job to a worker: the range
// [From, To) of every block in Blocks, which must all share one walk
// (eeb.SameWalk) — the worker values them together, generating each scenario
// once.
type executeRequest struct {
	Blocks []blockWire `json:"blocks"`
	From   int         `json:"from"`
	To     int         `json:"to"`
	Seed   uint64      `json:"seed"`
	// PaceSeconds is this slice's share of the job's wall-clock occupancy;
	// the worker holds the slice open that long (concurrently with every
	// other slice in flight across the cluster).
	PaceSeconds float64 `json:"paceSeconds,omitempty"`
	// ScenarioPeers is the cluster membership snapshot the scenario ring is
	// built over, so shard ownership is consistent across every slice of
	// one dispatch.
	ScenarioPeers []peerWire `json:"scenarioPeers,omitempty"`
}

// peerWire is one member of the snapshot. The ring hashes the name — the
// identity that survives a restart — and a fetch dials the address.
type peerWire struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

// decodeBlocks rebuilds and validates the request's blocks and checks the
// slice against the first block's outer range; that the blocks share that
// range, and a walk, is alm.NewJobValuer's check.
func (r executeRequest) decodeBlocks() ([]*eeb.Block, error) {
	if len(r.Blocks) == 0 || len(r.Blocks) > maxBlocksPerSlice {
		return nil, fmt.Errorf("cluster: slice carries %d blocks, want 1..%d", len(r.Blocks), maxBlocksPerSlice)
	}
	blocks := make([]*eeb.Block, len(r.Blocks))
	for i, w := range r.Blocks {
		b, err := w.decode()
		if err != nil {
			return nil, err
		}
		blocks[i] = b
	}
	if r.From < 0 || r.To > blocks[0].Outer || r.From >= r.To {
		return nil, fmt.Errorf("cluster: slice [%d,%d) outside block %s outer range %d",
			r.From, r.To, blocks[0].ID, blocks[0].Outer)
	}
	return blocks, nil
}

// executeResponse returns a slice's local Y1 values, one slice per block in
// request order. JSON float64 encoding is exact (shortest round-trip
// representation), so the gathered values are bit-identical to an
// in-process run.
type executeResponse struct {
	Y1 [][]float64 `json:"y1"`
}

// maxScenarioIndices bounds the outer paths one scenario request may ask
// for: a few MB of reply on the annual grid, tens on a monthly one.
const maxScenarioIndices = 1024

// scenarioRequest asks a node for outer paths of a ref's base set: all the
// paths of one slice that the node owns, in one exchange. The full ref
// travels so the owner can build the set even when it has not executed a
// slice of that campaign yet.
type scenarioRequest struct {
	Ref     stochastic.Ref `json:"ref"`
	Indices []int          `json:"indices"`
}

func (r *scenarioRequest) validate() error {
	if len(r.Indices) == 0 || len(r.Indices) > maxScenarioIndices {
		return fmt.Errorf("cluster: scenario request for %d paths, want 1..%d", len(r.Indices), maxScenarioIndices)
	}
	for _, i := range r.Indices {
		if i < 0 || i > 1<<30 {
			return fmt.Errorf("cluster: scenario index %d out of range", i)
		}
	}
	return r.Ref.Validate()
}

// scenarioResponse carries the paths, in request order.
type scenarioResponse struct {
	Scenarios []stochastic.ScenarioWire `json:"scenarios"`
}

// errorResponse is the JSON body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}
