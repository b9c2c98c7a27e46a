package eeb

import (
	"fmt"
	"reflect"
	"sort"

	"disarcloud/internal/fund"
	"disarcloud/internal/policy"
	"disarcloud/internal/stochastic"
)

// SplitSpec controls how a simulation request is decomposed into EEBs.
type SplitSpec struct {
	// MaxContractsPerBlock bounds the representative contracts in one block;
	// larger portfolios are sliced. Zero means no slicing.
	MaxContractsPerBlock int
	// Outer and Inner are the Monte Carlo sample sizes for type-B blocks.
	Outer, Inner int
	// Biometric is the decrement-assumption basis stamped on every block.
	Biometric Biometric
	// Scenarios, when non-nil, is the shared scenario source stamped on the
	// type-B blocks (stress-campaign reuse).
	Scenarios stochastic.Source
	// ScenarioRef, when non-nil, is the serializable recipe behind Scenarios,
	// stamped on the type-B blocks so they remain shippable across a cluster.
	ScenarioRef *stochastic.Ref
	// Buffers, when non-nil, is the shared panel pool stamped on every
	// block, so all slices of all jobs recycle the same scenario buffers.
	Buffers *stochastic.BatchPool
}

// NumTypeBBlocks returns how many type-B blocks SplitPortfolio will produce
// for a portfolio of the given representative-contract count — the single
// source of truth callers use to size progress totals.
func NumTypeBBlocks(contracts, maxContractsPerBlock int) int {
	if maxContractsPerBlock <= 0 {
		return 1
	}
	return (contracts + maxContractsPerBlock - 1) / maxContractsPerBlock
}

// SplitPortfolio decomposes one portfolio backed by one fund into the DISAR
// work units: one type-A block (the actuarial schedules are cheap and
// computed once) and one or more type-B blocks, slicing the portfolio when
// it exceeds MaxContractsPerBlock. This mirrors DiMaS "dividing all the
// input data in EEBs".
func SplitPortfolio(p *policy.Portfolio, f fund.Config, market stochastic.Config, spec SplitSpec) ([]*Block, error) {
	if p == nil {
		return nil, fmt.Errorf("eeb: nil portfolio")
	}
	nSlices := NumTypeBBlocks(p.NumRepresentative(), spec.MaxContractsPerBlock)
	slices := p.Slice(nSlices)

	blocks := make([]*Block, 0, len(slices)+1)
	blocks = append(blocks, &Block{
		ID:        fmt.Sprintf("%s/A", p.Name),
		Type:      ActuarialValuation,
		Portfolio: p,
		Fund:      f,
		Market:    market,
		Biometric: spec.Biometric,
		Buffers:   spec.Buffers,
	})
	for i, sub := range slices {
		blocks = append(blocks, &Block{
			ID:          fmt.Sprintf("%s/B%d", p.Name, i+1),
			Type:        ALMValuation,
			Portfolio:   sub,
			Fund:        f,
			Market:      market,
			Outer:       spec.Outer,
			Inner:       spec.Inner,
			Biometric:   spec.Biometric,
			Scenarios:   spec.Scenarios,
			ScenarioRef: spec.ScenarioRef,
			Buffers:     spec.Buffers,
		})
	}
	for _, b := range blocks {
		if err := b.Validate(); err != nil {
			return nil, err
		}
	}
	return blocks, nil
}

// TypeB filters the type-B blocks of a split — the cloud-distributed part.
func TypeB(blocks []*Block) []*Block {
	out := make([]*Block, 0, len(blocks))
	for _, b := range blocks {
		if b.Type == ALMValuation {
			out = append(out, b)
		}
	}
	return out
}

// SameWalk reports whether two type-B blocks may be valued in one walk of
// the nested Monte Carlo: the walk generates each scenario and prices the
// fund along it once for all of them, so they must agree on everything that
// work depends on — fund, market model, scenario source and the two sample
// sizes. Portfolio and biometric basis are per block and free to differ.
// Configurations compare by value, so blocks built apart from equal inputs
// still share a walk; live scenario sources compare by identity.
func SameWalk(a, b *Block) bool {
	return a.Type == ALMValuation && b.Type == ALMValuation &&
		a.Outer == b.Outer && a.Inner == b.Inner &&
		sameSource(a.Scenarios, b.Scenarios) &&
		reflect.DeepEqual(a.ScenarioRef, b.ScenarioRef) &&
		reflect.DeepEqual(a.Fund, b.Fund) &&
		reflect.DeepEqual(a.Market, b.Market)
}

// sameSource is interface identity that tolerates dynamic types == would
// panic on: sources of a non-comparable type are never the same.
func sameSource(a, b stochastic.Source) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	return va.Type() == vb.Type() && va.Comparable() && a == b
}

// GroupWalks partitions the type-B blocks of a split into the groups that
// walk together (SameWalk), keeping the input order of the groups' first
// blocks and of the blocks inside each group. The blocks of one job form a
// single group; an arbitrary block list may form several.
func GroupWalks(blocks []*Block) [][]*Block {
	var groups [][]*Block
next:
	for _, b := range TypeB(blocks) {
		for g := range groups {
			if SameWalk(groups[g][0], b) {
				groups[g] = append(groups[g], b)
				continue next
			}
		}
		groups = append(groups, []*Block{b})
	}
	return groups
}

// SortByComplexity orders blocks by decreasing complexity estimate, the
// longest-processing-time-first heuristic DiMaS uses when distributing
// blocks so stragglers start early.
func SortByComplexity(blocks []*Block) {
	sort.SliceStable(blocks, func(i, j int) bool {
		return blocks[i].Complexity() > blocks[j].Complexity()
	})
}
