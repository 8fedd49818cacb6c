package dist

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// hashRing is a consistent-hash ring over worker addresses. Each worker
// owns vnodes points on the ring; a job key looks up the first point at
// or after its own hash and walks clockwise, yielding workers in a
// deterministic preference order. Adding or removing one worker moves
// only the keys that hashed to its arcs, so a fleet resize does not
// reshuffle every study's home — the property that keeps the fleet-wide
// singleflight cache warm through worker churn.
type hashRing struct {
	points []ringPoint // sorted by hash
	n      int         // distinct workers
}

type ringPoint struct {
	hash uint64
	addr string
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	// FNV alone avalanches poorly on short, similar strings (worker
	// addresses differ by one digit; vnode suffixes are sequential),
	// which clusters ring points badly. A 64-bit finalizer fixes the
	// distribution without a new dependency.
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a bijective scrambler with strong
// avalanche behaviour.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// newHashRing builds a ring with vnodes points per worker. Addresses
// are deduplicated; order of the input does not matter.
func newHashRing(addrs []string, vnodes int) *hashRing {
	seen := map[string]bool{}
	r := &hashRing{}
	for _, a := range addrs {
		if seen[a] {
			continue
		}
		seen[a] = true
		r.n++
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hashString(a + "#" + strconv.Itoa(v)),
				addr: a,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on address so the ring order is deterministic even in
		// the (astronomically unlikely) event of a vnode hash collision.
		return r.points[i].addr < r.points[j].addr
	})
	return r
}

// Sequence returns every distinct worker in ring order starting from
// key's position: the first element is the job's home, the rest are its
// failover preference order. The sequence is a pure function of the
// worker set and the key, so every frontend replica routes the same
// study to the same worker.
func (r *hashRing) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashString(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, r.n)
	seen := make(map[string]bool, r.n)
	for i := 0; i < len(r.points) && len(out) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.addr] {
			seen[p.addr] = true
			out = append(out, p.addr)
		}
	}
	return out
}
