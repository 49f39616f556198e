package cuckoo

import (
	"math/rand"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/mem"
)

// benchSetup builds a filled table plus query stream for lookup benchmarks.
func benchSetup(b *testing.B, l Layout, nq int) (*Table, *Stream, *ResultBuf, *engine.Engine) {
	b.Helper()
	space := mem.NewAddressSpace()
	t, err := New(space, l, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	keys, _ := t.FillRandom(0.9, rng)
	queries := make([]uint64, nq)
	for i := range queries {
		queries[i] = keys[rng.Intn(len(keys))]
	}
	return t, NewStream(space, queries, l.KeyBits), NewResultBuf(space, nq, l.ValBits), engine.New(arch.SkylakeClusterA(), 1)
}

func BenchmarkNativeLookup(b *testing.B) {
	l := Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 12}
	t, s, _, _ := benchSetup(b, l, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Lookup(s.Key(i & 1023)); !ok {
			b.Fatal("stored key missing")
		}
	}
}

func BenchmarkNativeInsert(b *testing.B) {
	l := Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 16}
	space := mem.NewAddressSpace()
	t, _ := New(space, l, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := uint64(i)%uint64(l.Slots()) + 2
		if err := t.Insert(key&^1, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChargedScalarLookup(b *testing.B) {
	l := Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 12}
	t, s, res, e := benchSetup(b, l, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.LookupScalarBatch(e, s, 0, 1024, res, nil)
	}
	b.ReportMetric(float64(1024), "lookups/op")
}

func BenchmarkChargedHorizontalLookup(b *testing.B) {
	l := Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 12}
	t, s, res, e := benchSetup(b, l, 1024)
	cfg := HorizontalConfig{Width: 256, BucketsPerVec: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.LookupHorizontalBatch(e, s, 0, 1024, cfg, res, nil)
	}
	b.ReportMetric(float64(1024), "lookups/op")
}

func BenchmarkChargedVerticalLookup(b *testing.B) {
	l := Layout{N: 3, M: 1, KeyBits: 32, ValBits: 32, BucketBits: 13}
	t, s, res, e := benchSetup(b, l, 1024)
	cfg := VerticalConfig{Width: 512}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.LookupVerticalBatch(e, s, 0, 1024, cfg, res, nil)
	}
	b.ReportMetric(float64(1024), "lookups/op")
}

func BenchmarkChargedAMACLookup(b *testing.B) {
	l := Layout{N: 2, M: 4, KeyBits: 32, ValBits: 32, BucketBits: 12}
	t, s, res, e := benchSetup(b, l, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.LookupAMACBatch(e, s, 0, 1024, AMACConfig{}, res, nil)
	}
	b.ReportMetric(float64(1024), "lookups/op")
}

// BenchmarkFillToNinetyPercent times a (3,1) 32/32 fill to load factor 0.9
// — table allocation plus the BFS eviction inserts — at a cache-resident
// size and at a DRAM-scale size, where the fill's random probes miss the
// caches. ns/item is the host time per stored item. (The loop is a b.N
// loop, not b.Loop: go.mod declares go 1.22.)
func BenchmarkFillToNinetyPercent(b *testing.B) {
	for _, size := range []int{64 << 10, 16 << 20} {
		l, err := LayoutForBytes(3, 1, 32, 32, size)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(byteSize(size), func(b *testing.B) {
			items := 0
			for i := 0; i < b.N; i++ {
				t, _ := New(mem.NewAddressSpace(), l, int64(i))
				keys, lf := t.FillRandom(0.9, rand.New(rand.NewSource(int64(i))))
				if lf < 0.89 {
					b.Fatalf("fill stalled at %.2f", lf)
				}
				items += len(keys)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(items), "ns/item")
		})
	}
}
