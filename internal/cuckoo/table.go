package cuckoo

import (
	"errors"
	"fmt"
	"math/rand"

	"simdhtbench/internal/hashfn"
	"simdhtbench/internal/mem"
)

// ErrFull is returned by Insert when no cuckoo eviction path to an empty
// slot can be found; the table has reached its maximum load factor.
var ErrFull = errors.New("cuckoo: table full (no eviction path found)")

// DefaultMaxBFSNodes bounds the breadth-first eviction-path search. 2048
// expanded buckets is far beyond the depth needed at practical load factors;
// hitting the bound means the table is effectively full.
const DefaultMaxBFSNodes = 2048

// visitedSlots caps the BFS visited set. A search enqueues fewer than
// maxBFSNodes+M buckets, so at the default cap the set stays at most about
// a quarter full.
const visitedSlots = 8192

// Table is an (N,m) cuckoo hash table in simulated memory.
//
// Insertion uses breadth-first search over the eviction graph (the approach
// of MemC3/libcuckoo) to find a shortest path of relocations to an empty
// slot, which is what lets BCHT variants reach the >90% load factors of
// Fig. 2. Lookups come in a native flavour (Lookup) and engine-charged
// flavours in scalar.go / horizontal.go / vertical.go.
//
// A Table is not safe for concurrent mutation; the paper's workloads are
// read-only after the load phase, and concurrent readers are safe.
type Table struct {
	L     Layout
	Arena *mem.Arena

	fam         *hashfn.Family
	count       int
	rng         *rand.Rand
	maxBFSNodes int

	// tags holds one byte per slot, indexed b*M+s: 0 for an empty slot,
	// otherwise tagOf(stored key), an odd fingerprint. setSlot — the sole
	// writer of table bytes — keeps it in step with the arena. The
	// functional paths test emptiness and duplicates on the tag and read
	// the arena only on a tag match or to expand a BFS node, so a fill's
	// random probes hit a 1-byte-per-slot array instead of the table. The
	// arena stays authoritative: every charged load still reads table bytes.
	tags []uint8

	// Precomputed layout strides (resolved once in New) so the fill-path
	// offset math is two multiply-adds instead of re-deriving bucket and
	// slot sizes per access:
	//   keyOff(b,s) = b*bucketBytes + s*keyStride
	//   valOff(b,s) = b*bucketBytes + valBase + s*valStride
	bucketBytes int
	keyStride   int
	valBase     int
	valStride   int

	// BFS scratch reused across inserts. visited is a small open-addressed
	// set of epoch<<32 | bucket+1 words holding the buckets enqueued in the
	// current search: entries of an older epoch read as empty, so a search
	// clears it by bumping visitedEpoch. It has at most visitedSlots
	// entries, whatever the table size, so it stays cache-resident.
	// bfsQueue keeps its capacity between searches.
	visited      []uint64
	visitedEpoch uint32
	bfsQueue     []pathEntry

	// scratch holds the per-table reusable buffers of the charged lookup
	// templates (see lookupScratch); charged lookups on one Table must not
	// run concurrently, which the engine's single-core model already
	// requires.
	scratch lookupScratch

	// bundles caches precomputed engine cost bundles per (model, width)
	// pair for the lookup templates' fixed charge sequences.
	bundles []*templateBundles

	// Instrumentation for charged inserts: the relocations and BFS nodes
	// of the most recent Insert that required eviction.
	lastMoves    []move
	lastBFSNodes int
}

// move records one relocation performed by the eviction machinery.
type move struct {
	fromBucket, fromSlot int
	toBucket, toSlot     int
}

// New allocates a table with the given layout in the address space, with
// deterministic hash functions derived from seed.
func New(space *mem.AddressSpace, l Layout, seed int64) (*Table, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	// The arena carries one line of tail padding so vector-granularity
	// reads of the final slots (e.g. a 32-bit gather of a 16-bit payload)
	// stay in bounds — the same over-read padding real SIMD code allocates.
	// The visited set is also capped at twice the bucket count: a search
	// enqueues each bucket at most once, so that never fills either.
	visited := min(visitedSlots, 2*l.Buckets())
	t := &Table{
		L:           l,
		Arena:       space.Alloc(l.TableBytes() + mem.LineSize),
		fam:         hashfn.NewFamily(l.N, l.KeyBits, l.BucketBits, seed),
		rng:         rand.New(rand.NewSource(seed ^ 0x5eed)),
		maxBFSNodes: DefaultMaxBFSNodes,
		tags:        make([]uint8, l.Slots()),
		visited:     make([]uint64, visited),
		bucketBytes: l.BucketBytes(),
	}
	if l.Split {
		t.keyStride = l.KeyBits / 8
		t.valBase = l.M * l.KeyBits / 8
		t.valStride = l.ValBits / 8
	} else {
		t.keyStride = l.SlotBytes()
		t.valBase = l.KeyBits / 8
		t.valStride = l.SlotBytes()
	}
	return t, nil
}

// Family exposes the table's hash-function family (the vectorized lookup
// paths need the multipliers and shift to evaluate it per-lane).
func (t *Table) Family() *hashfn.Family { return t.fam }

// Count returns the number of stored items.
func (t *Table) Count() int { return t.count }

// LoadFactor returns count/slots.
func (t *Table) LoadFactor() float64 {
	return float64(t.count) / float64(t.L.Slots())
}

// Bucket returns hash function i applied to key.
func (t *Table) Bucket(i int, key uint64) int {
	return int(t.fam.Hash(i, key))
}

func (t *Table) keyAt(b, s int) uint64 {
	return t.Arena.ReadUint(b*t.bucketBytes+s*t.keyStride, t.L.KeyBits)
}

// tagOf is the slot tag of a stored key: 0 for the empty key, otherwise the
// top byte of a multiplicative hash with the low bit forced to 1.
func tagOf(key uint64) uint8 {
	if key == 0 {
		return 0
	}
	return uint8((key*0x9e3779b97f4a7c15)>>56) | 1
}

func (t *Table) valAt(b, s int) uint64 {
	return t.Arena.ReadUint(b*t.bucketBytes+t.valBase+s*t.valStride, t.L.ValBits)
}

func (t *Table) setSlot(b, s int, key, val uint64) {
	base := b * t.bucketBytes
	t.Arena.WriteUint(base+s*t.keyStride, t.L.KeyBits, key)
	t.Arena.WriteUint(base+t.valBase+s*t.valStride, t.L.ValBits, val)
	// Tag exactly what a ReadUint of the slot would return: WriteUint
	// stores the low KeyBits.
	t.tags[b*t.L.M+s] = tagOf(key & t.L.KeyMask())
}

// Lookup finds key and returns its payload. This is the native, uncharged
// path used for functional correctness.
func (t *Table) Lookup(key uint64) (uint64, bool) {
	tag := tagOf(key)
	for i := 0; i < t.L.N; i++ {
		b := t.Bucket(i, key)
		for s := 0; s < t.L.M; s++ {
			if t.tags[b*t.L.M+s] == tag && t.keyAt(b, s) == key {
				return t.valAt(b, s), true
			}
		}
	}
	return 0, false
}

// Insert stores (key, val). Inserting an existing key updates its payload.
// Returns ErrFull when no eviction path exists.
//
//lint:hotpath zero-alloc steady state pinned by AllocsPerRun tests
func (t *Table) Insert(key, val uint64) error {
	t.lastMoves = t.lastMoves[:0]
	t.lastBFSNodes = 0
	if key == 0 {
		return errors.New("cuckoo: key 0 is the empty-slot sentinel")
	}
	if key&^t.L.KeyMask() != 0 {
		return fmt.Errorf("cuckoo: key %#x exceeds %d bits", key, t.L.KeyBits)
	}
	if val&^t.L.ValMask() != 0 {
		return fmt.Errorf("cuckoo: payload %#x exceeds %d bits", val, t.L.ValBits)
	}

	// Update in place, or take the first empty slot in a candidate bucket.
	tags, tag, m := t.tags, tagOf(key), t.L.M
	emptyB, emptyS := -1, -1
	for i := 0; i < t.L.N; i++ {
		b := t.Bucket(i, key)
		base := b * m
		for s := 0; s < m; s++ {
			switch tags[base+s] {
			case tag:
				if t.keyAt(b, s) == key {
					t.setSlot(b, s, key, val)
					return nil
				}
			case 0:
				if emptyB < 0 {
					emptyB, emptyS = b, s
				}
			}
		}
	}
	if emptyB >= 0 {
		t.setSlot(emptyB, emptyS, key, val)
		t.count++
		return nil
	}

	b, s, ok := t.bfsMakeRoom(key)
	if !ok {
		return ErrFull
	}
	t.setSlot(b, s, key, val)
	t.count++
	return nil
}

// Delete removes key, returning whether it was present.
func (t *Table) Delete(key uint64) bool {
	tag := tagOf(key)
	for i := 0; i < t.L.N; i++ {
		b := t.Bucket(i, key)
		for s := 0; s < t.L.M; s++ {
			if t.tags[b*t.L.M+s] == tag && t.keyAt(b, s) == key {
				t.setSlot(b, s, 0, 0)
				t.count--
				return true
			}
		}
	}
	return false
}

// pathEntry is a node in the BFS over the eviction graph: reaching `bucket`
// required evicting the key in slot `parentSlot` of the parent entry.
type pathEntry struct {
	bucket     int
	parent     int // index into the BFS queue; -1 for roots
	parentSlot int
}

// bfsMakeRoom finds a shortest eviction path from one of key's candidate
// buckets to a bucket with an empty slot, performs the relocations, and
// returns the freed (bucket, slot). Every candidate bucket must be full,
// as Insert guarantees.
//
// The search is a FIFO BFS that marks a bucket visited when it is enqueued
// and expands a dequeued bucket by enqueuing each of its keys' alternate
// buckets. The table does not change during a search, so the bucket it
// ends at is the first one enqueued with an empty slot (found). The search
// stops as soon as found is enqueued if the maxBFSNodes cap provably could
// not have ended it before found was dequeued; otherwise it expands on
// until found is dequeued or the cap stops it. Either way lastBFSNodes,
// the path and the relocations are exactly those of a search that checks
// buckets for an empty slot only at dequeue.
func (t *Table) bfsMakeRoom(key uint64) (int, int, bool) {
	t.newVisitEpoch()
	queue := t.bfsQueue[:0]
	//lint:ignore alloclint the deferred reset closure captures only queue; Go stack-allocates it (the Insert AllocsPerRun pin proves it)
	defer func() { t.bfsQueue = queue[:0] }()
	m, n := t.L.M, t.L.N
	for i := 0; i < n; i++ {
		if b := t.Bucket(i, key); t.visit(b) {
			//lint:ignore alloclint BFS queue reuses t.bfsQueue's backing array; it grows only to the bounded high-water mark
			queue = append(queue, pathEntry{bucket: b, parent: -1})
		}
	}

	found, foundSlot := -1, -1
	for idx := 0; idx < len(queue) && len(queue) < t.maxBFSNodes; idx++ {
		t.lastBFSNodes++
		if idx == found {
			return t.applyPath(queue, idx, foundSlot)
		}
		e := queue[idx]
		for s := 0; s < m; s++ {
			k := t.keyAt(e.bucket, s)
			for j := 0; j < n; j++ {
				alt := t.Bucket(j, k)
				if alt == e.bucket || !t.visit(alt) {
					continue
				}
				//lint:ignore alloclint BFS queue reuses t.bfsQueue's backing array; it grows only to the bounded high-water mark
				queue = append(queue, pathEntry{bucket: alt, parent: idx, parentSlot: s})
				if found < 0 {
					if es := t.emptySlot(alt); es >= 0 {
						found, foundSlot = len(queue)-1, es
						// Before found is dequeued, the rest of this
						// expansion and the found-idx-1 expansions after it
						// add fewer than (found-idx)*(N-1)*M entries. If
						// even that keeps the queue under the cap, the
						// search reaches found: stop now.
						if found+1+(found-idx)*(n-1)*m < t.maxBFSNodes {
							t.lastBFSNodes = found + 1
							return t.applyPath(queue, found, foundSlot)
						}
					}
				}
				if len(queue) >= t.maxBFSNodes {
					break
				}
			}
		}
	}

	// The cap stopped the search first. Every bucket before found in the
	// queue is full, so found is the first queued bucket with an empty slot.
	if found >= 0 {
		return t.applyPath(queue, found, foundSlot)
	}
	return 0, 0, false
}

// newVisitEpoch empties the visited set for a new search. On the
// (astronomically rare) epoch wraparound the set is cleared once, so
// entries from 2^32 searches ago cannot alias the new epoch.
func (t *Table) newVisitEpoch() {
	t.visitedEpoch++
	if t.visitedEpoch == 0 {
		clear(t.visited)
		t.visitedEpoch = 1
	}
}

// visit adds bucket b to the current search's visited set and reports
// whether it was absent.
func (t *Table) visit(b int) bool {
	want := uint64(t.visitedEpoch)<<32 | uint64(b+1)
	// Bucket indices are hash outputs, so their low bits spread entries
	// evenly without further mixing.
	mask := len(t.visited) - 1
	for i := b & mask; ; i = (i + 1) & mask {
		switch w := t.visited[i]; {
		case w == want:
			return false
		case uint32(w>>32) != t.visitedEpoch:
			t.visited[i] = want
			return true
		}
	}
}

func (t *Table) emptySlot(b int) int {
	base := b * t.L.M
	for s := 0; s < t.L.M; s++ {
		if t.tags[base+s] == 0 {
			return s
		}
	}
	return -1
}

// applyPath relocates keys backwards along the BFS path ending at
// queue[leaf] (whose bucket has empty slot `emptySlot`), and returns the
// freed slot in the path's root bucket.
func (t *Table) applyPath(queue []pathEntry, leaf, emptySlot int) (int, int, bool) {
	e := queue[leaf]
	freeB, freeS := e.bucket, emptySlot
	for e.parent >= 0 {
		p := queue[e.parent]
		k := t.keyAt(p.bucket, e.parentSlot)
		v := t.valAt(p.bucket, e.parentSlot)
		// The key moving into freeB must indeed hash there.
		if !t.hashesTo(k, freeB) {
			panic(fmt.Sprintf("cuckoo: BFS path corrupt: key %#x does not hash to bucket %d", k, freeB))
		}
		t.setSlot(freeB, freeS, k, v)
		//lint:ignore alloclint lastMoves is reset to [:0] per Insert and reuses its backing array up to the bounded path length
		t.lastMoves = append(t.lastMoves, move{fromBucket: p.bucket, fromSlot: e.parentSlot, toBucket: freeB, toSlot: freeS})
		freeB, freeS = p.bucket, e.parentSlot
		e = p
	}
	t.setSlot(freeB, freeS, 0, 0)
	return freeB, freeS, true
}

func (t *Table) hashesTo(key uint64, bucket int) bool {
	for i := 0; i < t.L.N; i++ {
		if t.Bucket(i, key) == bucket {
			return true
		}
	}
	return false
}

// ForEach visits every stored (key, value) pair.
func (t *Table) ForEach(fn func(key, val uint64)) {
	for b := 0; b < t.L.Buckets(); b++ {
		for s := 0; s < t.L.M; s++ {
			if t.tags[b*t.L.M+s] != 0 {
				fn(t.keyAt(b, s), t.valAt(b, s))
			}
		}
	}
}

// FillRandom inserts random distinct keys until the table holds
// floor(lf*slots) items or an insert fails; it returns the inserted keys and
// the achieved load factor. Payload of key k is mixed from k so tests can
// verify lookups. The Fig. 2 experiment calls it with lf=1 to probe the
// layout's maximum achievable load factor.
func (t *Table) FillRandom(lf float64, rng *rand.Rand) ([]uint64, float64) {
	target := int(lf * float64(t.L.Slots()))
	keys := make([]uint64, 0, target)
	for t.count < target {
		key := (rng.Uint64() & t.L.KeyMask()) &^ 1 // even keys; odd = guaranteed misses
		if key == 0 {
			continue
		}
		// Duplicate draws are detected by the table itself instead of a
		// side map (which dominated large fills): inserting a present key
		// takes Insert's update-in-place path — it rewrites the identical
		// slot bytes (PayloadFor is deterministic) and leaves count
		// unchanged — so table state, RNG stream, and the returned key list
		// are all exactly what the map-based formulation produced.
		before := t.count
		if err := t.Insert(key, PayloadFor(key, t.L.ValBits)); err != nil {
			break
		}
		if t.count == before {
			// Exhausted keyspace check: tiny 16-bit tables can run out.
			if len(keys) >= int(t.L.KeyMask()/2) {
				break
			}
			continue
		}
		keys = append(keys, key)
	}
	return keys, t.LoadFactor()
}

// PayloadFor derives the deterministic payload stored for key in tests and
// fills, truncated to valBits.
func PayloadFor(key uint64, valBits int) uint64 {
	v := key*0x9e3779b97f4a7c15 + 1
	if valBits == 64 {
		return v
	}
	v &= (1 << valBits) - 1
	if v == 0 {
		v = 1
	}
	return v
}
