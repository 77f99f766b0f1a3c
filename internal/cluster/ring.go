// Package cluster is the sharded serving tier: a coordinator that fronts N
// replica serving cores (in-process or remote bepi-serve instances) with
// seed-affine consistent-hash routing, retries on ring successors, and
// replica health checking with ejection and readmission.
//
// Routing is keyed by seed so repeated queries for a seed land on the same
// replica, maximizing that replica's LRU cache hit rate — on a hot-seed
// workload a routed cluster serves almost entirely from per-replica caches.
// Consistent hashing bounds key movement when membership changes: ejecting
// or readmitting one replica only moves the keys it owns, never reshuffling
// traffic between surviving replicas.
//
// Replicas tag every response and health check with their (index hash,
// generation) pair. Every answer, a multi-seed one included, comes from one
// replica's one solve (see Coordinator.Personalized), so no answer mixes
// scores from two sides of an engine rebuild.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVnodes is the default number of virtual nodes each replica
// contributes to the ring. More vnodes smooth the key distribution at the
// cost of a larger (still tiny) sorted point array.
const DefaultVnodes = 64

// ringPoint is one virtual node: a position on the hash circle owned by a
// member.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is an immutable consistent-hash ring. Membership changes build a
// new ring (With/Without) rather than mutating, so readers never lock: the
// coordinator swaps an atomic pointer. Placement is deterministic in the
// member names and vnode count alone — two coordinators configured with
// the same replica set route every seed identically.
type Ring struct {
	vnodes  int
	members []string    // sorted, for Members and determinism
	points  []ringPoint // sorted by hash
}

// NewRing builds a ring over the given members with vnodes virtual nodes
// each (0 selects DefaultVnodes). Duplicate member names are collapsed.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := make(map[string]bool, len(members))
	r := &Ring{vnodes: vnodes}
	for _, m := range members {
		if seen[m] {
			continue
		}
		seen[m] = true
		r.members = append(r.members, m)
	}
	sort.Strings(r.members)
	r.points = make([]ringPoint, 0, len(r.members)*vnodes)
	for _, m := range r.members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(m, v), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Identical hashes (vanishingly rare) tie-break by name so
		// placement stays deterministic regardless of insertion order.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// pointHash positions one virtual node of a member on the circle. The
// FNV-1a digest of short, similar names is not uniform enough on its own
// (vnode arcs end up badly unbalanced), so it goes through the same
// finalizer as keyHash.
func pointHash(member string, vnode int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", member, vnode)
	return mix64(h.Sum64())
}

// keyHash maps a seed onto the circle. The seed's bits are mixed so
// sequential seeds spread uniformly instead of clustering.
func keyHash(seed int) uint64 {
	return mix64(uint64(seed) + 0x9e3779b97f4a7c15)
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche bijection.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Len returns the number of members.
func (r *Ring) Len() int { return len(r.members) }

// Members returns the sorted member names (read-only).
func (r *Ring) Members() []string { return r.members }

// Has reports whether member is on the ring.
func (r *Ring) Has(member string) bool {
	i := sort.SearchStrings(r.members, member)
	return i < len(r.members) && r.members[i] == member
}

// Owner returns the member owning a seed: the first virtual node at or
// clockwise after the seed's position. Empty string on an empty ring.
func (r *Ring) Owner(seed int) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(keyHash(seed))].member
}

// search finds the index of the first point at or after h, wrapping to 0.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Successors returns up to k distinct members in ring order starting at
// the seed's owner — the retry order for a failed query: the owner first,
// then the members that would inherit the seed if the owner left the ring.
func (r *Ring) Successors(seed, k int) []string {
	if len(r.points) == 0 || k <= 0 {
		return nil
	}
	if k > len(r.members) {
		k = len(r.members)
	}
	out := make([]string, 0, k)
	seen := make(map[string]bool, k)
	start := r.search(keyHash(seed))
	for i := 0; len(out) < k && i < len(r.points); i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// With returns a new ring with member added (no-op copy if present).
func (r *Ring) With(member string) *Ring {
	if r.Has(member) {
		return r
	}
	return NewRing(append([]string{member}, r.members...), r.vnodes)
}

// Without returns a new ring with member removed (no-op copy if absent).
func (r *Ring) Without(member string) *Ring {
	if !r.Has(member) {
		return r
	}
	rest := make([]string, 0, len(r.members)-1)
	for _, m := range r.members {
		if m != member {
			rest = append(rest, m)
		}
	}
	return NewRing(rest, r.vnodes)
}
