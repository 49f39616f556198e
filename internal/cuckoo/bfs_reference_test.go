package cuckoo

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"simdhtbench/internal/hashfn"
	"simdhtbench/internal/mem"
)

// refTable is a reference copy of the functional insert path as it stood
// before slot tags: keys are read straight from the arena, the visited set
// is a stamp word per bucket, and a bucket is checked for an empty slot
// only when the BFS dequeues it. TestInsertMatchesReferenceBFS drives it
// beside Table, insert by insert, to pin placement, BFS statistics and
// relocations.
type refTable struct {
	l            Layout
	arena        *mem.Arena
	fam          *hashfn.Family
	count        int
	maxBFSNodes  int
	stamp        []uint32
	epoch        uint32
	lastBFSNodes int
	lastMoves    []move

	// Coverage counters: paths found by the post-cap sweep, and paths found
	// at dequeue although the enqueue-time bound did not hold.
	sweepHits, lateHits int
}

func newRefTable(l Layout, seed int64, maxBFSNodes int) *refTable {
	return &refTable{
		l:           l,
		arena:       mem.NewAddressSpace().Alloc(l.TableBytes() + mem.LineSize),
		fam:         hashfn.NewFamily(l.N, l.KeyBits, l.BucketBits, seed),
		maxBFSNodes: maxBFSNodes,
		stamp:       make([]uint32, l.Buckets()),
	}
}

func (r *refTable) bucket(i int, key uint64) int { return int(r.fam.Hash(i, key)) }

func (r *refTable) keyAt(b, s int) uint64 { return r.arena.ReadUint(r.l.keyOff(b, s), r.l.KeyBits) }

func (r *refTable) valAt(b, s int) uint64 { return r.arena.ReadUint(r.l.valOff(b, s), r.l.ValBits) }

func (r *refTable) setSlot(b, s int, key, val uint64) {
	r.arena.WriteUint(r.l.keyOff(b, s), r.l.KeyBits, key)
	r.arena.WriteUint(r.l.valOff(b, s), r.l.ValBits, val)
}

func (r *refTable) insert(key, val uint64) error {
	r.lastMoves = r.lastMoves[:0]
	r.lastBFSNodes = 0
	emptyB, emptyS := -1, -1
	for i := 0; i < r.l.N; i++ {
		b := r.bucket(i, key)
		for s := 0; s < r.l.M; s++ {
			switch r.keyAt(b, s) {
			case key:
				r.setSlot(b, s, key, val)
				return nil
			case 0:
				if emptyB < 0 {
					emptyB, emptyS = b, s
				}
			}
		}
	}
	if emptyB >= 0 {
		r.setSlot(emptyB, emptyS, key, val)
		r.count++
		return nil
	}
	b, s, ok := r.bfsMakeRoom(key)
	if !ok {
		return ErrFull
	}
	r.setSlot(b, s, key, val)
	r.count++
	return nil
}

func (r *refTable) delete(key uint64) bool {
	for i := 0; i < r.l.N; i++ {
		b := r.bucket(i, key)
		for s := 0; s < r.l.M; s++ {
			if r.keyAt(b, s) == key {
				r.setSlot(b, s, 0, 0)
				r.count--
				return true
			}
		}
	}
	return false
}

func (r *refTable) emptySlot(b int) int {
	for s := 0; s < r.l.M; s++ {
		if r.keyAt(b, s) == 0 {
			return s
		}
	}
	return -1
}

func (r *refTable) bfsMakeRoom(key uint64) (int, int, bool) {
	r.epoch++
	if r.epoch == 0 {
		clear(r.stamp)
		r.epoch = 1
	}
	var queue []pathEntry
	for i := 0; i < r.l.N; i++ {
		b := r.bucket(i, key)
		if r.stamp[b] == r.epoch {
			continue
		}
		r.stamp[b] = r.epoch
		queue = append(queue, pathEntry{bucket: b, parent: -1})
	}
	for idx := 0; idx < len(queue) && len(queue) < r.maxBFSNodes; idx++ {
		r.lastBFSNodes++
		e := queue[idx]
		if s := r.emptySlot(e.bucket); s >= 0 {
			if e.parent >= 0 && idx+1+(idx-e.parent)*(r.l.N-1)*r.l.M >= r.maxBFSNodes {
				r.lateHits++
			}
			return r.applyPath(queue, idx, s)
		}
		for s := 0; s < r.l.M; s++ {
			k := r.keyAt(e.bucket, s)
			for j := 0; j < r.l.N; j++ {
				alt := r.bucket(j, k)
				if alt == e.bucket || r.stamp[alt] == r.epoch {
					continue
				}
				r.stamp[alt] = r.epoch
				queue = append(queue, pathEntry{bucket: alt, parent: idx, parentSlot: s})
				if len(queue) >= r.maxBFSNodes {
					break
				}
			}
		}
	}
	for idx, e := range queue {
		if s := r.emptySlot(e.bucket); s >= 0 {
			r.sweepHits++
			return r.applyPath(queue, idx, s)
		}
	}
	return 0, 0, false
}

func (r *refTable) applyPath(queue []pathEntry, leaf, emptySlot int) (int, int, bool) {
	e := queue[leaf]
	freeB, freeS := e.bucket, emptySlot
	for e.parent >= 0 {
		p := queue[e.parent]
		k, v := r.keyAt(p.bucket, e.parentSlot), r.valAt(p.bucket, e.parentSlot)
		r.setSlot(freeB, freeS, k, v)
		r.lastMoves = append(r.lastMoves, move{fromBucket: p.bucket, fromSlot: e.parentSlot, toBucket: freeB, toSlot: freeS})
		freeB, freeS = p.bucket, e.parentSlot
		e = p
	}
	r.setSlot(freeB, freeS, 0, 0)
	return freeB, freeS, true
}

// TestInsertMatchesReferenceBFS drives Table and the reference insert path
// with the same key sequence — fresh keys, duplicate updates and a few
// deletes — until the table has refused many inserts with ErrFull. After
// every insert the error, LastEvictionStats and the relocations must
// agree; at the end the table bytes must be identical. Small BFS caps make
// the cap decide many searches, so the paths that keep expanding past an
// enqueued empty bucket run too.
func TestInsertMatchesReferenceBFS(t *testing.T) {
	layouts := []Layout{
		{N: 3, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 10},
		{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 8},
		{N: 2, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 9},
		{N: 2, M: 8, KeyBits: 16, ValBits: 16, BucketBits: 6, Split: true},
	}
	var sweepHits, lateHits int
	for _, l := range layouts {
		for _, maxBFS := range []int{8, 64, DefaultMaxBFSNodes} {
			t.Run(fmt.Sprintf("%dx%d-split=%t/cap%d", l.N, l.M, l.Split, maxBFS), func(t *testing.T) {
				ref := driveAgainstReference(t, l, maxBFS, false)
				sweepHits += ref.sweepHits
				lateHits += ref.lateHits
			})
		}
	}
	if sweepHits == 0 || lateHits == 0 {
		t.Errorf("cap-bound paths not exercised: %d sweep hits, %d late dequeue hits", sweepHits, lateHits)
	}
}

// TestInsertMatchesReferenceBFSEpochWrap sets the visited epoch to its
// maximum partway through a fill, so the next eviction search wraps it and
// must clear the visited set rather than alias entries from epoch 1.
func TestInsertMatchesReferenceBFSEpochWrap(t *testing.T) {
	l := Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 8}
	driveAgainstReference(t, l, DefaultMaxBFSNodes, true)
}

func driveAgainstReference(t *testing.T, l Layout, maxBFS int, wrapEpoch bool) *refTable {
	t.Helper()
	const seed = 5
	tab, err := New(mem.NewAddressSpace(), l, seed)
	if err != nil {
		t.Fatal(err)
	}
	tab.maxBFSNodes = maxBFS
	ref := newRefTable(l, seed, maxBFS)
	rng := rand.New(rand.NewSource(seed))

	var keys []uint64
	fulls, wrapped := 0, false
	for i := 0; fulls < 50 && i < 4*l.Slots(); i++ {
		if wrapEpoch && !wrapped && tab.Count() > l.Slots()*8/10 {
			tab.visitedEpoch = math.MaxUint32
			wrapped = true
		}
		var key uint64
		switch r := rng.Float64(); {
		case r < 0.05 && len(keys) > 0:
			j := rng.Intn(len(keys))
			key = keys[j]
			keys[j] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
			if got, want := tab.Delete(key), ref.delete(key); got != want {
				t.Fatalf("delete %d (%#x): table %t, reference %t", i, key, got, want)
			}
			continue
		case r < 0.10 && len(keys) > 0:
			key = keys[rng.Intn(len(keys))]
		default:
			key = (rng.Uint64() & l.KeyMask()) &^ 1
			if key == 0 {
				continue
			}
		}
		val := rng.Uint64() & l.ValMask()
		before := tab.Count()
		got, want := tab.Insert(key, val), ref.insert(key, val)
		if !errors.Is(got, want) {
			t.Fatalf("insert %d (%#x): table err %v, reference err %v", i, key, got, want)
		}
		bfs, moves := tab.LastEvictionStats()
		if bfs != ref.lastBFSNodes || moves != len(ref.lastMoves) {
			t.Fatalf("insert %d (%#x): eviction stats (%d, %d), reference (%d, %d)",
				i, key, bfs, moves, ref.lastBFSNodes, len(ref.lastMoves))
		}
		if !slices.Equal(tab.lastMoves, ref.lastMoves) {
			t.Fatalf("insert %d (%#x): moves %v, reference %v", i, key, tab.lastMoves, ref.lastMoves)
		}
		if tab.Count() != ref.count {
			t.Fatalf("insert %d (%#x): count %d, reference %d", i, key, tab.Count(), ref.count)
		}
		if got != nil {
			fulls++
		} else if tab.Count() > before {
			keys = append(keys, key)
		}
	}
	if fulls == 0 {
		t.Fatalf("fill never reached ErrFull (count %d of %d slots)", tab.Count(), l.Slots())
	}
	if wrapEpoch && (!wrapped || tab.visitedEpoch == math.MaxUint32) {
		t.Fatalf("visited epoch never wrapped (wrapped=%t, epoch %d)", wrapped, tab.visitedEpoch)
	}
	size := l.TableBytes() + mem.LineSize
	if !bytes.Equal(tab.Arena.Bytes(0, size), ref.arena.Bytes(0, size)) {
		t.Fatal("table bytes differ from the reference after the fill")
	}
	return ref
}
