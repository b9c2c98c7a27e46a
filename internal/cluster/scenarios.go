package cluster

import (
	"context"
	"fmt"
	"sync"

	"disarcloud/internal/stochastic"
)

// maxCachedSets bounds the node-local cache: a memoised set holds every path
// its slices walked (outer + outer*inner scenarios), so a long-lived worker
// keeps the most recently used few.
const maxCachedSets = 4

// cachedSet is one base source of the node-local cache.
type cachedSet struct {
	key string
	src stochastic.Source
	// prefetching serialises the prefetches of the slices sharing the set: a
	// campaign keeps several modules in flight over one outer range, and the
	// later ones must find the first one's installs, not repeat its exchanges.
	prefetching sync.Mutex
}

// scenarioCache is the node-local half of the cluster scenario protocol: one
// base source per Ref.BaseKey(), built once and shared by every slice of
// every job that references it. On a campaign this is exactly the
// scenario-set reuse the single-node service gets from its shared Set —
// every module's ref maps to the same key, so the node pays one base set no
// matter how many modules' slices land on it. A slice holding an evicted set
// finishes on its own reference.
type scenarioCache struct {
	mu   sync.Mutex
	sets []*cachedSet // most recently used first, at most maxCachedSets
}

// base returns the ref's base source, building it on first use.
func (c *scenarioCache) base(ref *stochastic.Ref) (*cachedSet, error) {
	key := ref.BaseKey()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, s := range c.sets {
		if s.key == key {
			copy(c.sets[1:i+1], c.sets[:i])
			c.sets[0] = s
			return s, nil
		}
	}
	src, err := ref.NewBaseSource()
	if err != nil {
		return nil, err
	}
	if len(c.sets) < maxCachedSets {
		c.sets = append(c.sets, nil)
	}
	copy(c.sets[1:], c.sets)
	c.sets[0] = &cachedSet{key: key, src: src}
	return c.sets[0], nil
}

// scenarios builds the source a shipped slice walks: the cached base set,
// prefetched for [from, to), under the ref's transform — the Derived(*Set) an
// in-process campaign walks, so the valuer batches both the same way. A nil
// ref means the blocks generate from the valuation seed (plain jobs).
func (w *Worker) scenarios(ctx context.Context, ref *stochastic.Ref, peers []peerWire, from, to int) (stochastic.Source, error) {
	if ref == nil {
		return nil, nil
	}
	cs, err := w.cache.base(ref)
	if err != nil {
		return nil, err
	}
	if set, ok := cs.src.(*stochastic.Set); ok && len(peers) > 1 {
		cs.prefetching.Lock()
		w.prefetch(ctx, set, cs.key, ref, peers, from, to)
		cs.prefetching.Unlock()
	}
	return ref.Resolve(cs.src), nil
}

// shardOwner returns the ring node that owns outer path i of a base set.
func shardOwner(ring *Ring, baseKey string, i int) string {
	return ring.Owner(fmt.Sprintf("%s/%d", baseKey, i))
}

// prefetch is the share-or-generate protocol. Each outer path has one OWNER
// on the consistent-hash ring of worker names; the owner generates it, and a
// node about to walk paths it neither holds nor owns asks each owner once
// for all of that owner's. Whatever does not arrive — owner unreachable,
// reply malformed, path off the set's grid — the set generates during the
// walk, bit-identically: a failed exchange costs time, never correctness.
// Inner paths are always generated locally: they condition on the locally
// held outer path and dwarf the outers in count.
func (w *Worker) prefetch(ctx context.Context, set *stochastic.Set, key string, ref *stochastic.Ref, peers []peerWire, from, to int) {
	names := make([]string, len(peers))
	for i, p := range peers {
		names[i] = p.Name
	}
	ring := NewRing(names, 0)
	missing := make(map[string][]int)
	for i := from; i < to; i++ {
		if _, held := set.Lookup(i); held {
			continue
		}
		// Past the cap an owner's paths are simply generated here.
		if owner := shardOwner(ring, key, i); owner != w.Name && len(missing[owner]) < maxScenarioIndices {
			missing[owner] = append(missing[owner], i)
		}
	}
	// The owner may not have seen this campaign yet, so the base recipe
	// travels: the ref without the module's transform.
	base := *ref
	base.Transform = stochastic.Transform{}
	for _, p := range peers {
		indices := missing[p.Name]
		if len(indices) == 0 {
			continue
		}
		var resp scenarioResponse
		err := postJSON(ctx, w.client, "http://"+p.Addr+"/v1/scenario", scenarioRequest{Ref: base, Indices: indices}, &resp)
		if err != nil || len(resp.Scenarios) != len(indices) {
			continue
		}
		for k, wire := range resp.Scenarios {
			if sc, err := wire.Restore(); err == nil {
				_ = set.Install(indices[k], sc) // refused off the set's grid
			}
		}
	}
}
