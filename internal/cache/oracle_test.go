package cache

import (
	"math/rand"
	"testing"

	"simdhtbench/internal/mem"
)

// refLevel is a straightforward reference implementation of one
// set-associative LRU level: a slice per set kept in MRU-first order — the
// formulation the flat-array level was derived from. The property test
// drives both against the same access stream and requires identical
// observable behaviour at every step.
type refLevel struct {
	sets    [][]uint64
	numSets uint64
	assoc   int
	hits    uint64
	misses  uint64
}

func newRefLevel(cfg Config) *refLevel {
	lines := cfg.Size / mem.LineSize
	numSets := lines / cfg.Assoc
	if numSets == 0 {
		numSets = 1
	}
	return &refLevel{sets: make([][]uint64, numSets), numSets: uint64(numSets), assoc: cfg.Assoc}
}

func (r *refLevel) access(line uint64) (hit, evicted bool) {
	idx := (line / mem.LineSize) % r.numSets
	set := r.sets[idx]
	for i, tag := range set {
		if tag == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			r.hits++
			return true, false
		}
	}
	r.misses++
	if len(set) < r.assoc {
		set = append(set, 0)
	} else {
		evicted = true
	}
	copy(set[1:], set)
	set[0] = line
	r.sets[idx] = set
	return false, evicted
}

// TestLevelMatchesReferenceLRU drives the optimized level and the reference
// LRU over identical random access streams — including hot-register-friendly
// repeats — across power-of-two and non-power-of-two set counts, and checks
// hit/eviction decisions and stats match access by access. Each stream runs
// once at the bottom of the address space and once just below the
// maxLineAddr limit, where a truncated tag would alias.
func TestLevelMatchesReferenceLRU(t *testing.T) {
	configs := []Config{
		{Name: "L1-pow2", Size: 32 << 10, Assoc: 8, Latency: 4},
		{Name: "L3-nonpow2", Size: 11 * 64 * 37, Assoc: 11, Latency: 40}, // 37 sets
		{Name: "direct", Size: 4 << 10, Assoc: 1, Latency: 1},
		{Name: "one-set", Size: 4 * 64, Assoc: 4, Latency: 1},
	}
	for _, cfg := range configs {
		for _, top := range []bool{false, true} {
			name := cfg.Name
			if top {
				name += "/top"
			}
			t.Run(name, func(t *testing.T) {
				fast := newLevel(cfg)
				ref := newRefLevel(cfg)
				rng := rand.New(rand.NewSource(42))
				lines := int(ref.numSets)*cfg.Assoc*2 + 3 // force conflicts
				var base uint64
				if top {
					base = maxLineAddr - uint64(lines)*mem.LineSize
				}
				var prev uint64
				for step := 0; step < 20000; step++ {
					var line uint64
					switch rng.Intn(4) {
					case 0: // repeat the previous line (hot-register path)
						line = prev
					default:
						line = base + uint64(rng.Intn(lines))*mem.LineSize
					}
					prev = line
					h1, e1 := fast.access(line)
					h2, e2 := ref.access(line)
					if h1 != h2 || e1 != e2 {
						t.Fatalf("%s step %d line %#x: fast (hit=%v evicted=%v) vs ref (hit=%v evicted=%v)",
							cfg.Name, step, line, h1, e1, h2, e2)
					}
				}
				if fast.stats.Hits != ref.hits || fast.stats.Misses != ref.misses {
					t.Fatalf("%s stats: fast %d/%d vs ref %d/%d",
						cfg.Name, fast.stats.Hits, fast.stats.Misses, ref.hits, ref.misses)
				}
				// Resident contents must agree set by set, in LRU order. The
				// fast level stores 32-bit line indexes; decode them back to
				// line addresses.
				for s := uint64(0); s < fast.numSets; s++ {
					got := fast.tags[s*uint64(fast.assoc) : s*uint64(fast.assoc)+uint64(fast.used[s])]
					want := ref.sets[s]
					if len(got) != len(want) {
						t.Fatalf("%s set %d: %d resident vs %d", cfg.Name, s, len(got), len(want))
					}
					for i := range got {
						if line := uint64(got[i]) * mem.LineSize; line != want[i] {
							t.Fatalf("%s set %d way %d: %#x vs %#x", cfg.Name, s, i, line, want[i])
						}
					}
				}
			})
		}
	}
}
