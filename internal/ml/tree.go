package ml

import (
	"math"
	"slices"

	"disarcloud/internal/finmath"
)

// RandomTree is a regression tree that, like Weka's RandomTree, considers a
// random subset of K features at each split (variance-reduction criterion)
// and grows without pruning down to MinLeaf instances. It is both a usable
// learner on its own (the paper's "RT") and the base learner of the random
// forest.
type RandomTree struct {
	K        int // features tried per split; 0 = ceil(sqrt(dim))
	MinLeaf  int // minimum instances per leaf; 0 = 2
	MaxDepth int // 0 = unlimited
	Seed     uint64

	nodes   []treeNode
	trained bool
}

// NewRandomTree returns a tree with Weka-like defaults rooted at seed.
func NewRandomTree(seed uint64) *RandomTree { return &RandomTree{Seed: seed} }

// Name implements Model.
func (t *RandomTree) Name() string { return "RT" }

// treeNode is one node of the tree's flat node array; children are indices
// into it (the root is node 0).
type treeNode struct {
	feature     int // -1 for leaf
	threshold   float64
	left, right int32
	value       float64
}

// Train implements Model.
func (t *RandomTree) Train(d *Dataset) error {
	if d.Len() == 0 {
		return ErrEmptyDataset
	}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	t.trainOn(d, idx, &treeScratch{})
	return nil
}

// treeScratch holds the buffers one tree's growth reuses at every node. A
// forest worker keeps one across the trees it grows.
type treeScratch struct {
	nodes   []treeNode
	perm    []int
	spill   []int // right-hand side of the split being partitioned
	pairs   []splitPair
	prefSum []float64
	prefSq  []float64
}

type splitPair struct{ x, y float64 }

// grower carries one tree's growth state down the recursion.
type grower struct {
	d                    *Dataset
	k, minLeaf, maxDepth int
	rng                  *finmath.RNG
	*treeScratch
}

// trainOn grows the tree on the instances of d listed in idx (repeats
// allowed: a forest passes a bootstrap resample), in that order. idx is
// permuted in place.
func (t *RandomTree) trainOn(d *Dataset, idx []int, s *treeScratch) {
	g := grower{d: d, k: t.K, minLeaf: t.MinLeaf, maxDepth: t.MaxDepth, rng: finmath.NewRNG(t.Seed), treeScratch: s}
	if g.k <= 0 {
		g.k = int(math.Ceil(math.Sqrt(float64(d.NumFeatures()))))
	}
	if g.minLeaf <= 0 {
		g.minLeaf = 2
	}
	s.nodes = s.nodes[:0]
	g.grow(idx, 0)
	t.nodes = append([]treeNode(nil), s.nodes...)
	t.trained = true
}

// grow appends the subtree over idx to the node array and returns its root.
func (g *grower) grow(idx []int, depth int) int32 {
	d := g.d
	self := int32(len(g.nodes))
	g.nodes = append(g.nodes, treeNode{feature: -1})
	if len(idx) < 2*g.minLeaf || (g.maxDepth > 0 && depth >= g.maxDepth) || constantTargets(d, idx) {
		g.nodes[self].value = meanTarget(d, idx)
		return self
	}
	dim := d.NumFeatures()
	bestFeat, bestThr, bestScore := -1, 0.0, math.Inf(1)

	// Random feature subset without replacement.
	g.perm = g.perm[:0]
	for f := 0; f < dim; f++ {
		g.perm = append(g.perm, f)
	}
	perm := g.perm
	g.rng.Shuffle(dim, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	tried := 0
	for _, f := range perm {
		if tried >= g.k {
			break
		}
		tried++
		thr, score, ok := g.bestSplitOnFeature(idx, f)
		if ok && score < bestScore {
			bestFeat, bestThr, bestScore = f, thr, score
		}
	}
	nLeft := 0
	if bestFeat >= 0 {
		for _, i := range idx {
			if d.Instances[i].Features[bestFeat] <= bestThr {
				nLeft++
			}
		}
	}
	if nLeft < g.minLeaf || len(idx)-nLeft < g.minLeaf {
		g.nodes[self].value = meanTarget(d, idx)
		return self
	}
	// Stable partition in place: both sides keep idx's order, which the
	// children's tie-breaking among equal feature values depends on.
	g.spill = g.spill[:0]
	nLeft = 0
	for _, i := range idx {
		if d.Instances[i].Features[bestFeat] <= bestThr {
			idx[nLeft] = i
			nLeft++
		} else {
			g.spill = append(g.spill, i)
		}
	}
	copy(idx[nLeft:], g.spill)
	left := g.grow(idx[:nLeft], depth+1)
	right := g.grow(idx[nLeft:], depth+1)
	g.nodes[self] = treeNode{feature: bestFeat, threshold: bestThr, left: left, right: right}
	return self
}

// bestSplitOnFeature scans the sorted unique values of feature f and returns
// the threshold minimising the weighted sum of child variances (total sum of
// squared deviations), requiring minLeaf instances on each side.
func (g *grower) bestSplitOnFeature(idx []int, f int) (thr, score float64, ok bool) {
	pairs := g.pairs[:0]
	for _, id := range idx {
		in := &g.d.Instances[id]
		pairs = append(pairs, splitPair{in.Features[f], in.Target})
	}
	g.pairs = pairs
	slices.SortFunc(pairs, func(a, b splitPair) int {
		switch {
		case a.x < b.x:
			return -1
		case b.x < a.x:
			return 1
		}
		return 0
	})

	// Prefix sums for O(n) variance-at-split evaluation.
	n := len(pairs)
	prefSum := append(g.prefSum[:0], 0)
	prefSq := append(g.prefSq[:0], 0)
	for i, p := range pairs {
		prefSum = append(prefSum, prefSum[i]+p.y)
		prefSq = append(prefSq, prefSq[i]+p.y*p.y)
	}
	g.prefSum, g.prefSq = prefSum, prefSq
	sse := func(lo, hi int) float64 { // [lo, hi)
		cnt := float64(hi - lo)
		if cnt == 0 {
			return 0
		}
		s := prefSum[hi] - prefSum[lo]
		sq := prefSq[hi] - prefSq[lo]
		return sq - s*s/cnt
	}

	best := math.Inf(1)
	bestThr := 0.0
	found := false
	for i := g.minLeaf; i <= n-g.minLeaf; i++ {
		if pairs[i-1].x == pairs[i].x {
			continue // cannot split between equal values
		}
		sc := sse(0, i) + sse(i, n)
		if sc < best {
			best = sc
			bestThr = (pairs[i-1].x + pairs[i].x) / 2
			found = true
		}
	}
	return bestThr, best, found
}

func meanTarget(d *Dataset, idx []int) float64 {
	s := 0.0
	for _, i := range idx {
		s += d.Instances[i].Target
	}
	return s / float64(len(idx))
}

func constantTargets(d *Dataset, idx []int) bool {
	first := d.Instances[idx[0]].Target
	for _, i := range idx[1:] {
		if d.Instances[i].Target != first {
			return false
		}
	}
	return true
}

// Predict implements Model.
func (t *RandomTree) Predict(features []float64) float64 {
	if !t.trained {
		return 0
	}
	node := &t.nodes[0]
	for node.feature >= 0 {
		if features[node.feature] <= node.threshold {
			node = &t.nodes[node.left]
		} else {
			node = &t.nodes[node.right]
		}
	}
	return node.value
}

// Depth returns the tree depth (useful in tests).
func (t *RandomTree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	return t.depthOf(0)
}

func (t *RandomTree) depthOf(i int32) int {
	n := t.nodes[i]
	if n.feature < 0 {
		return 0
	}
	return max(t.depthOf(n.left), t.depthOf(n.right)) + 1
}

var _ Model = (*RandomTree)(nil)
