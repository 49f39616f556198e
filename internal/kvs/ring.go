package kvs

import (
	"fmt"
	"sort"

	"simdhtbench/internal/hashfn"
)

// Ring is the client-side consistent-hash ring of Section VI-A's request
// phase: "each key in MGet(K1..Kn) is mapped to a specific Memcached server
// using consistent hashing, and requests are batched by their respective
// servers". Virtual nodes smooth the key distribution across servers, as in
// libmemcached's ketama.
//
// A ring is immutable: membership changes (Join/Leave) return a new ring at
// the next epoch, with only the departing/arriving server's vnode arcs
// changing ownership (minimal remapping). Fleet-scale replication walks the
// same ring for successor replicas via ReplicaOwners.
type Ring struct {
	points  []ringPoint
	members []int // sorted distinct server ids
	vnodes  int
	epoch   int
}

type ringPoint struct {
	hash   uint64
	server int
}

// DefaultVNodes is the virtual-node count per server (ketama uses 100–200).
const DefaultVNodes = 160

// NewRing builds a ring over servers 0..servers-1 with vnodes virtual nodes
// each (0 picks DefaultVNodes), at epoch 0.
func NewRing(servers, vnodes int) (*Ring, error) {
	if servers <= 0 {
		return nil, fmt.Errorf("kvs: ring needs at least one server")
	}
	members := make([]int, servers)
	for s := range members {
		members[s] = s
	}
	return NewRingMembers(members, vnodes)
}

// NewRingMembers builds a ring at epoch 0 over an explicit member set.
// Member ids must be distinct and non-negative; vnodes 0 picks
// DefaultVNodes. The vnode hash of a member depends only on its id, so two
// rings over the same member set own identical key ranges regardless of how
// they were constructed.
func NewRingMembers(members []int, vnodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("kvs: ring needs at least one server")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]int(nil), members...)
	sort.Ints(sorted)
	for i, s := range sorted {
		if s < 0 {
			return nil, fmt.Errorf("kvs: ring member %d is negative", s)
		}
		if i > 0 && sorted[i-1] == s {
			return nil, fmt.Errorf("kvs: duplicate ring member %d", s)
		}
	}
	r := &Ring{members: sorted, vnodes: vnodes}
	for _, s := range sorted {
		r.points = append(r.points, vnodePoints(s, vnodes)...)
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r, nil
}

// vnodePoints hashes one server's virtual nodes. The hash strings are the
// ketama-style "server-S-vnode-V" labels the original single-epoch ring
// used, so epoch-0 rings place keys exactly as before.
func vnodePoints(server, vnodes int) []ringPoint {
	pts := make([]ringPoint, vnodes)
	for v := 0; v < vnodes; v++ {
		h := hashfn.HashBytes([]byte(fmt.Sprintf("server-%d-vnode-%d", server, v)))
		pts[v] = ringPoint{hash: h, server: server}
	}
	return pts
}

// Servers returns the current member count.
func (r *Ring) Servers() int { return len(r.members) }

// Epoch returns the membership epoch (0 for a freshly built ring; +1 per
// Join or Leave).
func (r *Ring) Epoch() int { return r.epoch }

// Members returns a copy of the sorted member ids.
func (r *Ring) Members() []int { return append([]int(nil), r.members...) }

// HasMember reports whether server id is currently in the ring.
func (r *Ring) HasMember(id int) bool {
	i := sort.SearchInts(r.members, id)
	return i < len(r.members) && r.members[i] == id
}

// Join returns a new ring at the next epoch with server id added. Only
// keys landing on the new server's vnode arcs change owner (minimal
// remapping).
func (r *Ring) Join(id int) (*Ring, error) {
	if id < 0 {
		return nil, fmt.Errorf("kvs: ring member %d is negative", id)
	}
	if r.HasMember(id) {
		return nil, fmt.Errorf("kvs: server %d already in ring", id)
	}
	members := make([]int, 0, len(r.members)+1)
	members = append(members, r.members...)
	members = append(members, id)
	sort.Ints(members)
	nr := &Ring{members: members, vnodes: r.vnodes, epoch: r.epoch + 1}
	nr.points = make([]ringPoint, 0, len(r.points)+r.vnodes)
	nr.points = append(nr.points, r.points...)
	nr.points = append(nr.points, vnodePoints(id, r.vnodes)...)
	sort.Slice(nr.points, func(i, j int) bool { return nr.points[i].hash < nr.points[j].hash })
	return nr, nil
}

// Leave returns a new ring at the next epoch with server id removed. Only
// keys the departing server owned change owner. The last member cannot
// leave.
func (r *Ring) Leave(id int) (*Ring, error) {
	if !r.HasMember(id) {
		return nil, fmt.Errorf("kvs: server %d not in ring", id)
	}
	if len(r.members) == 1 {
		return nil, fmt.Errorf("kvs: cannot remove last ring member %d", id)
	}
	members := make([]int, 0, len(r.members)-1)
	for _, s := range r.members {
		if s != id {
			members = append(members, s)
		}
	}
	nr := &Ring{members: members, vnodes: r.vnodes, epoch: r.epoch + 1}
	nr.points = make([]ringPoint, 0, len(r.points)-r.vnodes)
	for _, p := range r.points {
		if p.server != id {
			nr.points = append(nr.points, p)
		}
	}
	return nr, nil
}

// Owner maps a key to its server: the first ring point clockwise from the
// key's hash.
func (r *Ring) Owner(key []byte) int {
	h := hashfn.HashBytes(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].server
}

// ReplicaOwners returns the key's replica set: up to n distinct servers
// collected by walking clockwise from the key's hash (the first is Owner).
// When n exceeds the member count every member is returned. dst, when
// non-nil, is reused to avoid allocation; the result is dst[:m].
func (r *Ring) ReplicaOwners(key []byte, n int, dst []int) []int {
	return r.ReplicaOwnersHash(hashfn.HashBytes(key), n, dst)
}

// ReplicaOwnersHash is ReplicaOwners for a key whose hashfn.HashBytes value
// h the caller already holds.
func (r *Ring) ReplicaOwnersHash(h uint64, n int, dst []int) []int {
	if n < 1 {
		n = 1
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	dst = dst[:0]
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for scanned := 0; scanned < len(r.points) && len(dst) < n; scanned++ {
		if i == len(r.points) {
			i = 0
		}
		s := r.points[i].server
		dup := false
		for _, d := range dst {
			if d == s {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, s)
		}
		i++
	}
	return dst
}

// Split partitions a Multi-Get batch by owning server, preserving key
// order within each sub-batch — the per-server batching of the request
// phase. The returned map contains only servers that own at least one key.
func (r *Ring) Split(keys [][]byte) map[int][][]byte {
	out := make(map[int][][]byte)
	for _, k := range keys {
		s := r.Owner(k)
		out[s] = append(out[s], k)
	}
	return out
}

// OwnedShare returns the fraction of the hash space owned (as primary) by
// server id: the summed arc length preceding its vnode points, as a share
// of 2^64. Useful for sizing the expected remap fraction of a membership
// change.
func (r *Ring) OwnedShare(id int) float64 {
	if len(r.points) == 0 {
		return 0
	}
	var owned uint64
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		arc := p.hash - prev // wraps correctly with uint64 arithmetic
		if p.server == id {
			owned += arc
		}
		prev = p.hash
	}
	return float64(owned) / (1 << 64)
}
