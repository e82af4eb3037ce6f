package proxy

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over backend indices. Each backend owns
// vnodes virtual points; a key hashes to a position and is owned by the
// first point clockwise. The property the sharding story rests on (pinned by
// TestRingStability): removing one of N backends remaps only the keys that
// backend owned — every other key keeps its owner, so a fleet change does
// not stampede the survivors' caches or sessions.
//
// The ring is immutable after construction. Failure handling does not
// rebuild it: an unavailable owner is skipped by walking to the next
// distinct backend in ring order (sequence), which is exactly the owner the
// key would have if the dead backend were removed — the same stability
// property, applied transiently.
type ring struct {
	points []ringPoint // sorted by hash
	n      int         // distinct backends
}

type ringPoint struct {
	hash uint64
	idx  int // backend index
}

// hashKey positions a routing key on the ring: FNV-1a 64 with a murmur
// fmix64 finalizer. Raw FNV-1a avalanches poorly in the high bits for
// short, similar inputs ("host#0", "host#1", …), and ring ordering is
// dominated by the high bits — without the finalizer one backend can end
// up owning most of the keyspace.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// newRing builds the ring from backend names with vnodes points each.
func newRing(names []string, vnodes int) *ring {
	r := &ring{
		points: make([]ringPoint, 0, len(names)*vnodes),
		n:      len(names),
	}
	for i, name := range names {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("%s#%d", name, v)), idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Identical virtual-point hashes (vanishingly rare) break the tie by
		// backend index so construction order cannot change ownership.
		return r.points[a].idx < r.points[b].idx
	})
	return r
}

// search finds the first point at or clockwise of h.
func (r *ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0 // wrap
	}
	return i
}

// sequence returns all distinct backends in ring order starting at key's
// owner: sequence[0] is the owner, sequence[1] is where the key lands if the
// owner is removed, and so on. This is the preference order the proxy walks
// for failover, retries and hedging.
func (r *ring) sequence(key string) []int {
	seq := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	start := r.search(hashKey(key))
	for off := 0; off < len(r.points) && len(seq) < r.n; off++ {
		p := r.points[(start+off)%len(r.points)]
		if !seen[p.idx] {
			seen[p.idx] = true
			seq = append(seq, p.idx)
		}
	}
	return seq
}
