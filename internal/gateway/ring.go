// Package gateway is the fleet front for gliderd: a stdlib-only HTTP
// gateway that routes jobs to N backends with a consistent-hash ring keyed
// by the canonical job hash (so each shard keeps cache locality for its
// keys), health-aware membership off /healthz polling, capped-backoff
// retries that fail over along the ring, and a gateway-level LRU result
// cache layered over the per-node caches.
package gateway

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// Ring is a consistent-hash ring. Each node contributes `replicas` virtual
// points placed by FNV-1a; a key is owned by the first point clockwise from
// the key's own hash. Ownership depends only on the current membership set —
// never on the order nodes were added or removed in — and removing a node
// only moves the keys it owned, which is what keeps per-shard result caches
// warm through churn. Safe for concurrent use.
type Ring struct {
	replicas int

	mu     sync.RWMutex
	points []ringPoint // sorted by (hash, node)
	nodes  map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// DefaultReplicas is the virtual-point count per node when NewRing is given
// a non-positive value: enough to keep the key split across a handful of
// nodes within a few percent of even.
const DefaultReplicas = 64

// NewRing builds an empty ring with the given virtual points per node.
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, nodes: make(map[string]bool)}
}

// ringHash places a string on the ring: FNV-1a (matching the canonical job
// hash) followed by a 64-bit avalanche finalizer. Raw FNV of short,
// near-identical strings ("b0#1" vs "b0#2") clusters badly enough to skew
// ownership 70/30; the finalizer spreads the points evenly.
func ringHash(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Add inserts a node; adding a member again is a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{hash: ringHash(node + "#" + strconv.Itoa(i)), node: node})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
}

// Remove deletes a node; removing a non-member is a no-op.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Has reports whether node is a member.
func (r *Ring) Has(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nodes[node]
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Nodes returns the members in sorted order.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owner returns the node owning key, or ok=false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	s := r.Successors(key, 1)
	if len(s) == 0 {
		return "", false
	}
	return s[0], true
}

// Successors returns up to n distinct nodes in ring order starting at key's
// owner — the preference order for failover: the owner first,
// then the nodes that would inherit the key if the owner vanished.
func (r *Ring) Successors(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	kh := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
