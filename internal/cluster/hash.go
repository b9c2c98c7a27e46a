package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over node names. Each node is projected
// onto the ring at `replicas` pseudo-random points, and a key is owned by
// the first node point at or after the key's own hash. Adding or removing a
// node therefore remaps only the keys in the arcs it owned — which is what
// keeps scenario-shard ownership and job routing stable while the cluster
// scales elastically.
//
// A Ring is immutable after construction; membership changes build a new
// ring (they are rare next to lookups).
type Ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node string
}

// defaultReplicas is the virtual-point count per node — enough to keep the
// per-node load spread within a few percent at the cluster sizes the paper
// studies (up to tens of nodes) while ring construction stays trivial.
const defaultReplicas = 64

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// NewRing builds a ring over the given nodes with replicas virtual points
// each (<=0 selects the default). Duplicate node names collapse to one.
func NewRing(nodes []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (astronomically rare with 64-bit FNV) break by name so every
		// ring over the same membership agrees on ownership.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the node owning the key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}
