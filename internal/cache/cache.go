// Package cache implements a set-associative, LRU, multi-level cache
// hierarchy simulator.
//
// The performance engine charges every simulated memory access through a
// Hierarchy, which walks L1 → L2 → L3 → DRAM and returns the access latency
// in CPU cycles. Because the cuckoo hash tables in this repository live in
// simulated arenas (internal/mem) with stable addresses, the hierarchy sees
// the same line-granularity behaviour the paper's hardware saw: bucketized
// tables that fit a bucket in one line cost one miss per probe, N-way tables
// cost up to N, skewed workloads keep their hot set resident, and tables
// larger than a level spill to the next one.
package cache

import (
	"fmt"

	"simdhtbench/internal/mem"
	"simdhtbench/internal/obs"
)

// Config describes one cache level.
type Config struct {
	Name    string  // "L1D", "L2", ...
	Size    int     // total bytes
	Assoc   int     // ways per set
	Latency float64 // access latency in cycles on hit at this level
}

// Stats accumulates per-level hit/miss counters.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// HitRate returns hits/(hits+misses), or 0 when the level was never touched.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// hotLineNone is the sentinel for an empty per-level hot register; no real
// line address can equal it (lines are line-aligned, so the low bits of a
// valid line are zero).
const hotLineNone = ^uint64(0)

// maxLineAddr is the exclusive upper bound on simulated line addresses:
// each way stores its line's index (address / LineSize) as a 32-bit tag,
// so the hierarchy covers the low 2^38 B (256 GiB) of the address space.
// Simulated address spaces start at 1 MiB and grow by allocation, far
// below it; a line at or above it panics rather than aliasing.
const maxLineAddr = uint64(mem.LineSize) << 32

// maxAssoc bounds the ways per set: occupancy is stored as a uint8.
const maxAssoc = 255

// level is one set-associative cache level with LRU replacement. All sets
// live in one flat tag array — set i occupies tags[i*assoc : i*assoc+used[i]]
// in recency order (offset 0 = most recently used) — so building a level is
// two allocations regardless of set count and an access touches one
// contiguous span. A tag is the 32-bit line index (line / LineSize), half
// the footprint of a 64-bit address; the bulk of a per-core engine's memory
// is these arrays. LRU stays a couple of element rotations. Levels whose
// set count is a power of two index with a mask instead of a modulo.
type level struct {
	cfg     Config
	tags    []uint32 // numSets*assoc line indexes, each set MRU first
	used    []uint8  // resident lines per set
	numSets uint64
	setMask uint64 // numSets-1 when numSets is a power of two, else 0
	assoc   int
	stats   Stats

	// hotLine short-circuits repeated accesses to the most recently
	// accessed line: after any access (hit or install) that line is at the
	// MRU position of its set, so the next access to the same line is a
	// hit that needs no scan and no reorder.
	hotLine uint64
}

func newLevel(cfg Config) *level {
	if cfg.Size <= 0 || cfg.Assoc <= 0 || cfg.Assoc > maxAssoc {
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	lines := cfg.Size / mem.LineSize
	numSets := lines / cfg.Assoc
	if numSets == 0 {
		numSets = 1
	}
	l := &level{
		cfg:     cfg,
		tags:    make([]uint32, numSets*cfg.Assoc),
		used:    make([]uint8, numSets),
		numSets: uint64(numSets),
		assoc:   cfg.Assoc,
		hotLine: hotLineNone,
	}
	if numSets&(numSets-1) == 0 {
		l.setMask = uint64(numSets) - 1
	}
	return l
}

// lineTag returns the 32-bit tag of a line address, panicking on a line
// outside the maxLineAddr range the tags can represent.
func lineTag(line uint64) uint32 {
	if line >= maxLineAddr {
		panic(fmt.Sprintf("cache: line address %#x at or above the 2^38 B simulated-address limit", line))
	}
	return uint32(line / mem.LineSize)
}

// setIndex maps a line tag to its set.
func (l *level) setIndex(tag uint32) uint64 {
	if l.setMask != 0 {
		return uint64(tag) & l.setMask
	}
	return uint64(tag) % l.numSets
}

// access looks up a line address; on miss the line is installed, possibly
// evicting the LRU way. Returns whether it hit and whether the install
// evicted a resident line.
func (l *level) access(line uint64) (hit, evicted bool) {
	if line == l.hotLine {
		// The previous access left this line at its set's MRU position;
		// nothing to scan or reorder.
		l.stats.Hits++
		return true, false
	}
	tag := lineTag(line)
	setIdx := l.setIndex(tag)
	base := setIdx * uint64(l.assoc)
	set := l.tags[base : base+uint64(l.used[setIdx])]
	for i, t := range set {
		if t == tag {
			// Move to front (MRU).
			copy(set[1:i+1], set[:i])
			set[0] = tag
			l.stats.Hits++
			l.hotLine = line
			return true, false
		}
	}
	l.stats.Misses++
	return false, l.install(line, tag, setIdx)
}

// install places a line at MRU of its set, reporting whether the set was
// full and the LRU way was evicted to make room.
func (l *level) install(line uint64, tag uint32, setIdx uint64) (evicted bool) {
	base := setIdx * uint64(l.assoc)
	n := int(l.used[setIdx])
	if n < l.assoc {
		l.used[setIdx] = uint8(n + 1)
		n++
	} else {
		evicted = true
	}
	set := l.tags[base : base+uint64(n)]
	copy(set[1:], set)
	set[0] = tag
	l.hotLine = line
	return evicted
}

func (l *level) reset() {
	clear(l.used)
	l.stats = Stats{}
	l.hotLine = hotLineNone
}

// copyFrom makes l an exact copy of src, which must have the same config.
func (l *level) copyFrom(src *level) {
	if l.cfg != src.cfg {
		panic(fmt.Sprintf("cache: copy between levels %+v and %+v", l.cfg, src.cfg))
	}
	copy(l.tags, src.tags)
	copy(l.used, src.used)
	l.stats = src.stats
	l.hotLine = src.hotLine
}

// Hierarchy is an inclusive multi-level cache backed by DRAM.
type Hierarchy struct {
	levels      []*level
	dramLatency float64
	dramAccess  uint64
	// DRAMPenalty multiplies the DRAM latency; the execution engine sets it
	// above 1.0 to model memory-bandwidth contention when all cores of a
	// node probe a shared table (full-subscription mode in the paper).
	DRAMPenalty float64
	// Probe, when non-nil, observes charged accesses level by level (obs
	// layer). Touch — the uncharged warm-up path — stays silent so probes
	// see only measured traffic.
	Probe obs.CacheProbe
}

// New builds a hierarchy from outermost-first level configs and a DRAM
// latency in cycles.
func New(dramLatency float64, levels ...Config) *Hierarchy {
	h := &Hierarchy{dramLatency: dramLatency, DRAMPenalty: 1.0}
	for _, cfg := range levels {
		h.levels = append(h.levels, newLevel(cfg))
	}
	return h
}

// CopyFrom makes h an exact copy of src's cache state: resident lines in
// LRU order, hot-line registers, per-level stats and the DRAM fill count.
// Both hierarchies must have the same level configs and DRAM latency;
// DRAMPenalty and Probe are h's own and stay as they are. The copy answers
// any later access stream exactly as src would, and the two share no state.
func (h *Hierarchy) CopyFrom(src *Hierarchy) {
	if len(h.levels) != len(src.levels) || h.dramLatency != src.dramLatency {
		panic("cache: CopyFrom between hierarchies of different configs")
	}
	for i, l := range h.levels {
		l.copyFrom(src.levels[i])
	}
	h.dramAccess = src.dramAccess
}

// Access simulates a data access of size bytes at addr and returns its
// latency in cycles. Accesses spanning multiple cache lines charge each line
// independently (the paper's layouts are engineered around exactly this
// effect: a (2,4) BCHT bucket fits one line, a 3-way probe touches three).
func (h *Hierarchy) Access(addr uint64, size int) float64 {
	var cycles float64
	first := mem.LineOf(addr)
	n := mem.LinesTouched(addr, size)
	for i := 0; i < n; i++ {
		cycles += h.accessLine(first + uint64(i)*mem.LineSize)
	}
	return cycles
}

// AccessLine simulates a single-line access and returns its latency.
func (h *Hierarchy) AccessLine(line uint64) float64 {
	return h.accessLine(mem.LineOf(line))
}

func (h *Hierarchy) accessLine(line uint64) float64 {
	c, _ := h.accessLineDetail(line)
	return c
}

// AccessLineDetail performs a single-line access and returns its latency
// plus the contention excess — the portion of the latency contributed by
// the multi-core DRAM-bandwidth penalty. Overlapped access mechanisms
// (gathers) can hide uncontended latency behind memory-level parallelism
// but cannot hide bandwidth saturation, so the engine scales only the
// non-excess part.
func (h *Hierarchy) AccessLineDetail(line uint64) (cycles, contentionExcess float64) {
	return h.accessLineDetail(mem.LineOf(line))
}

func (h *Hierarchy) accessLineDetail(line uint64) (float64, float64) {
	c, e, _ := h.accessLineServed(line)
	return c, e
}

// AccessLineServed performs a single-line access and additionally reports
// which level served it: the index into Levels() of the hitting level, or
// len(Levels()) when the fill went to DRAM. The cycle accounting is the
// accessLineServed path itself — identical float operations in identical
// order to Access/AccessLineDetail — so profiled and unprofiled runs charge
// bit-identical latencies.
func (h *Hierarchy) AccessLineServed(line uint64) (cycles float64, served int) {
	c, _, s := h.accessLineServed(mem.LineOf(line))
	return c, s
}

// AccessLineDetailServed is AccessLineDetail plus the serving-level index
// (see AccessLineServed).
func (h *Hierarchy) AccessLineDetailServed(line uint64) (cycles, contentionExcess float64, served int) {
	return h.accessLineServed(mem.LineOf(line))
}

func (h *Hierarchy) accessLineServed(line uint64) (float64, float64, int) {
	var cycles float64
	for i, l := range h.levels {
		cycles += l.cfg.Latency
		hit, evicted := l.access(line)
		if h.Probe != nil {
			h.Probe.LevelAccess(l.cfg.Name, hit)
			if evicted {
				h.Probe.Eviction(l.cfg.Name)
			}
		}
		if hit {
			return cycles, 0, i
		}
	}
	h.dramAccess++
	if h.Probe != nil {
		h.Probe.LevelAccess("DRAM", true)
	}
	return cycles + h.dramLatency*h.DRAMPenalty, h.dramLatency * (h.DRAMPenalty - 1), len(h.levels)
}

// Touch installs a line in every level without charging latency. The
// performance engine uses it to warm caches before a measured run, mirroring
// the paper's discarded warm-up iterations.
func (h *Hierarchy) Touch(addr uint64, size int) {
	first := mem.LineOf(addr)
	n := mem.LinesTouched(addr, size)
	for i := 0; i < n; i++ {
		line := first + uint64(i)*mem.LineSize
		for _, l := range h.levels {
			l.access(line) // warm-up install: stats reset later, probe not fired
		}
	}
}

// Reset clears all cached lines and statistics.
func (h *Hierarchy) Reset() {
	for _, l := range h.levels {
		l.reset()
	}
	h.dramAccess = 0
}

// ResetStats clears statistics but keeps resident lines, so a measured run
// can follow a warm-up without refilling the caches.
func (h *Hierarchy) ResetStats() {
	for _, l := range h.levels {
		l.stats = Stats{}
	}
	h.dramAccess = 0
}

// LevelStats returns the stats of the named level, and whether it exists.
func (h *Hierarchy) LevelStats(name string) (Stats, bool) {
	for _, l := range h.levels {
		if l.cfg.Name == name {
			return l.stats, true
		}
	}
	return Stats{}, false
}

// DRAMAccesses returns how many line fills went all the way to memory.
func (h *Hierarchy) DRAMAccesses() uint64 { return h.dramAccess }

// Levels returns the names of the configured levels, outermost first.
func (h *Hierarchy) Levels() []string {
	names := make([]string, len(h.levels))
	for i, l := range h.levels {
		names[i] = l.cfg.Name
	}
	return names
}
