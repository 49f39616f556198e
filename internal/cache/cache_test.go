package cache

import (
	"math/rand"
	"strings"
	"testing"

	"simdhtbench/internal/mem"
)

func tiny() *Hierarchy {
	// 2-level: L1 = 1 KB 2-way (8 sets), L2 = 4 KB 4-way, DRAM 100cy.
	return New(100,
		Config{Name: "L1D", Size: 1 << 10, Assoc: 2, Latency: 4},
		Config{Name: "L2", Size: 4 << 10, Assoc: 4, Latency: 12},
	)
}

func TestColdMissThenHit(t *testing.T) {
	h := tiny()
	first := h.Access(0x1000, 8)
	if want := 4.0 + 12.0 + 100.0; first != want {
		t.Errorf("cold access latency = %v, want %v", first, want)
	}
	second := h.Access(0x1000, 8)
	if second != 4 {
		t.Errorf("L1 hit latency = %v, want 4", second)
	}
	st, _ := h.LevelStats("L1D")
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("L1 stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestSameLineSharing(t *testing.T) {
	h := tiny()
	h.Access(0x1000, 4)
	// Another word on the same 64B line must hit L1.
	if lat := h.Access(0x1020, 4); lat != 4 {
		t.Errorf("same-line access latency = %v, want 4", lat)
	}
}

func TestLineSplitAccessChargesTwoLines(t *testing.T) {
	h := tiny()
	lat := h.Access(0x103C, 8) // straddles 0x1000 and 0x1040 lines
	if want := 2 * (4.0 + 12.0 + 100.0); lat != want {
		t.Errorf("split access latency = %v, want %v", lat, want)
	}
	if h.DRAMAccesses() != 2 {
		t.Errorf("DRAM accesses = %d, want 2", h.DRAMAccesses())
	}
}

func TestLRUEviction(t *testing.T) {
	h := tiny()
	// L1: 8 sets × 2 ways; lines mapping to set 0 are 64-byte lines at
	// stride 8*64 = 512 bytes.
	a, b, c := uint64(0), uint64(512), uint64(1024)
	h.Access(a, 1)
	h.Access(b, 1)
	h.Access(c, 1) // evicts a from L1 (LRU)
	st, _ := h.LevelStats("L1D")
	missesBefore := st.Misses
	h.Access(a, 1) // must miss L1 (evicted), hit L2
	st, _ = h.LevelStats("L1D")
	if st.Misses != missesBefore+1 {
		t.Error("expected L1 miss after LRU eviction")
	}
	l2, _ := h.LevelStats("L2")
	if l2.Hits == 0 {
		t.Error("expected L2 hit for line evicted from L1 only")
	}
}

func TestLRURecencyUpdate(t *testing.T) {
	h := tiny()
	a, b, c := uint64(0), uint64(512), uint64(1024)
	h.Access(a, 1)
	h.Access(b, 1)
	h.Access(a, 1) // refresh a: b becomes LRU
	h.Access(c, 1) // evicts b, not a
	if lat := h.Access(a, 1); lat != 4 {
		t.Errorf("refreshed line latency = %v, want L1 hit (4)", lat)
	}
}

func TestWorkingSetLargerThanLevel(t *testing.T) {
	h := tiny()
	// Touch 2 KB of distinct lines (> 1 KB L1, < 4 KB L2), twice.
	for pass := 0; pass < 2; pass++ {
		for off := uint64(0); off < 2048; off += mem.LineSize {
			h.Access(off, 1)
		}
	}
	l1, _ := h.LevelStats("L1D")
	l2, _ := h.LevelStats("L2")
	if l1.HitRate() > 0.6 {
		t.Errorf("L1 hit rate %v suspiciously high for 2x working set", l1.HitRate())
	}
	if l2.Hits == 0 {
		t.Error("L2 should absorb the L1 overflow on the second pass")
	}
	if h.DRAMAccesses() != 32 {
		t.Errorf("DRAM accesses = %d, want 32 (cold lines only)", h.DRAMAccesses())
	}
}

func TestDRAMPenalty(t *testing.T) {
	h := tiny()
	h.DRAMPenalty = 2.0
	lat := h.Access(0x2000, 1)
	if want := 4.0 + 12.0 + 200.0; lat != want {
		t.Errorf("penalized cold access = %v, want %v", lat, want)
	}
}

func TestTouchWarmsWithoutLatency(t *testing.T) {
	h := tiny()
	h.Touch(0x3000, 8)
	if lat := h.Access(0x3000, 8); lat != 4 {
		t.Errorf("post-Touch access latency = %v, want 4", lat)
	}
}

func TestResetStatsKeepsLines(t *testing.T) {
	h := tiny()
	h.Access(0x4000, 8)
	h.ResetStats()
	if lat := h.Access(0x4000, 8); lat != 4 {
		t.Errorf("after ResetStats, access = %v, want L1 hit", lat)
	}
	st, _ := h.LevelStats("L1D")
	if st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
}

func TestResetClearsLines(t *testing.T) {
	h := tiny()
	h.Access(0x4000, 8)
	h.Reset()
	if lat := h.Access(0x4000, 8); lat != 4+12+100 {
		t.Errorf("after Reset, access = %v, want cold miss", lat)
	}
}

func TestStatsConservation(t *testing.T) {
	// Property: at every level, hits + misses of level i equals misses of
	// level i-1 (every L1 miss probes L2, etc.), and total accesses add up.
	h := tiny()
	rng := rand.New(rand.NewSource(42))
	n := 5000
	for i := 0; i < n; i++ {
		h.Access(uint64(rng.Intn(16<<10))&^7, 8)
	}
	l1, _ := h.LevelStats("L1D")
	l2, _ := h.LevelStats("L2")
	if l1.Hits+l1.Misses != uint64(n) {
		t.Errorf("L1 accesses = %d, want %d", l1.Hits+l1.Misses, n)
	}
	if l2.Hits+l2.Misses != l1.Misses {
		t.Errorf("L2 accesses = %d, want L1 misses %d", l2.Hits+l2.Misses, l1.Misses)
	}
	if h.DRAMAccesses() != l2.Misses {
		t.Errorf("DRAM accesses = %d, want L2 misses %d", h.DRAMAccesses(), l2.Misses)
	}
}

func TestLevels(t *testing.T) {
	h := tiny()
	names := h.Levels()
	if len(names) != 2 || names[0] != "L1D" || names[1] != "L2" {
		t.Errorf("Levels() = %v", names)
	}
	if _, ok := h.LevelStats("L9"); ok {
		t.Error("LevelStats should report missing levels")
	}
}

// TestCopyFromIsIndependentTwin warms a hierarchy with a random stream,
// copies it, and requires the copy and the original to answer an identical
// follow-up stream identically — latencies, serving levels, evictions and
// stats — and then that accesses to one leave the other untouched.
func TestCopyFromIsIndependentTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	stream := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(rng.Intn(64<<10)) &^ 7
		}
		return out
	}
	orig := tiny()
	for _, a := range stream(3000) {
		orig.Access(a, 8)
	}
	for _, a := range stream(500) {
		orig.Touch(a, 8)
	}
	twin := tiny()
	twin.Access(0x9000, 8) // stale state the copy must overwrite
	twin.CopyFrom(orig)

	probe := func(h *Hierarchy) *countProbe {
		p := &countProbe{}
		h.Probe = p
		return p
	}
	po, pt := probe(orig), probe(twin)
	// Lead with the copy's stale hot line: a copy that kept its own hot
	// registers would report a false hit there.
	for i, a := range append([]uint64{0x9000}, stream(5000)...) {
		c1, s1 := orig.AccessLineServed(a)
		c2, s2 := twin.AccessLineServed(a)
		if c1 != c2 || s1 != s2 {
			t.Fatalf("access %d at %#x: original (%v cycles, level %d) vs copy (%v, %d)", i, a, c1, s1, c2, s2)
		}
		if *po != *pt {
			t.Fatalf("access %d at %#x: probe counts differ: original %+v vs copy %+v", i, a, *po, *pt)
		}
	}
	for _, name := range orig.Levels() {
		s1, _ := orig.LevelStats(name)
		s2, _ := twin.LevelStats(name)
		if s1 != s2 {
			t.Fatalf("%s stats: original %+v vs copy %+v", name, s1, s2)
		}
	}
	if orig.DRAMAccesses() != twin.DRAMAccesses() {
		t.Fatalf("DRAM fills: original %d vs copy %d", orig.DRAMAccesses(), twin.DRAMAccesses())
	}

	// Independence: thrash the copy, then the original must still hit the
	// line it last accessed and keep its stats.
	last := uint64(0x5000)
	orig.Access(last, 8)
	before, _ := orig.LevelStats("L1D")
	for off := uint64(0); off < 64<<10; off += mem.LineSize {
		twin.Access(off, 1)
	}
	after, _ := orig.LevelStats("L1D")
	if before != after {
		t.Fatalf("original's L1 stats moved from %+v to %+v under accesses to the copy", before, after)
	}
	if lat := orig.Access(last, 8); lat != 4 {
		t.Fatalf("original lost its MRU line to the copy's accesses: latency %v, want 4", lat)
	}
}

// countProbe counts probe events by kind.
type countProbe struct{ hits, misses, evictions, dram int }

func (p *countProbe) LevelAccess(level string, hit bool) {
	switch {
	case level == "DRAM":
		p.dram++
	case hit:
		p.hits++
	default:
		p.misses++
	}
}

func (p *countProbe) Eviction(string) { p.evictions++ }

func TestCopyFromRejectsDifferentConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom between different configs did not panic")
		}
	}()
	other := New(100, Config{Name: "L1D", Size: 1 << 10, Assoc: 2, Latency: 4})
	other.CopyFrom(tiny())
}

// TestLineAboveTagRangePanics pins the 32-bit tag limit: the last line
// below 2^38 B is cacheable, and the first line at the limit panics with a
// message naming its address instead of aliasing onto line 0.
func TestLineAboveTagRangePanics(t *testing.T) {
	h := tiny()
	top := maxLineAddr - mem.LineSize
	h.Access(top, 8)
	if lat := h.Access(top, 8); lat != 4 {
		t.Fatalf("line %#x: second access latency %v, want an L1 hit", top, lat)
	}
	for _, touch := range []bool{false, true} {
		func() {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if !strings.Contains(msg, "0x4000000000") {
					t.Fatalf("touch=%v: panic %v, want one naming address 0x4000000000", touch, r)
				}
			}()
			if touch {
				h.Touch(maxLineAddr, 1)
			} else {
				h.Access(maxLineAddr, 1)
			}
		}()
	}
}

func TestAssocAboveOccupancyRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a 256-way level did not panic")
		}
	}()
	New(100, Config{Name: "L1D", Size: 256 * 64, Assoc: 256, Latency: 4})
}
