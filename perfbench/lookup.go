package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/core"
	"simdhtbench/internal/cuckoo"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/workload"
)

// The lookup workloads' fixed configuration: 32-bit keys and payloads, load
// factor 0.9, hit rate 0.9, uniform queries, on the Skylake Cluster A model.
const (
	keyBits    = 32
	valBits    = 32
	loadFactor = 0.9
	hitRate    = 0.9
)

// lookupLayouts are the (N, m) layouts every lookup round measures: a
// non-bucketized 3-way table (vertical templates) and a bucketized 2-way,
// 4-slot table (horizontal templates).
var lookupLayouts = [][2]int{{3, 1}, {2, 4}}

// lookupBench is core.Run decomposed into its layer calls, so that table
// fill, query generation, warm-up and the charged lookups are timed apart.
type lookupBench struct {
	arch    *arch.Model
	bytes   int // table size
	queries int // measured queries per variant
	seed    int64
	first   [][]core.Measurement // round 1's measurements, per layout
}

func newLookupBench(bytes, queries int, seed int64) *lookupBench {
	return &lookupBench{arch: arch.SkylakeClusterA(), bytes: bytes, queries: queries, seed: seed}
}

// params is the core.Run configuration the decomposed driver reproduces.
func (b *lookupBench) params(n, m int) core.Params {
	return core.Params{
		Arch: b.arch, N: n, M: m, KeyBits: keyBits, ValBits: valBits,
		TableBytes: b.bytes, LoadFactor: loadFactor, HitRate: hitRate,
		Pattern: workload.Uniform, Queries: b.queries, Seed: b.seed,
	}
}

// variant is one lookup template measured over the query stream.
type variant struct {
	name   string
	width  int
	choice core.Choice
	run    func(e *engine.Engine, from, n int) int
}

// variants lists the scalar baseline and every viable SIMD design choice,
// in core.Run's order.
func (b *lookupBench) variants(t *cuckoo.Table, s *cuckoo.Stream, res *cuckoo.ResultBuf) ([]variant, error) {
	out := []variant{{name: "scalar", width: arch.WidthScalar, run: func(e *engine.Engine, from, n int) int {
		return t.LookupScalarBatch(e, s, from, n, res, nil)
	}}}
	for _, c := range core.EnumerateChoices(b.arch, t.L, b.arch.Widths, nil) {
		v := variant{width: c.Width, choice: c}
		switch c.Approach {
		case core.Horizontal:
			cfg := cuckoo.HorizontalConfig{Width: c.Width, BucketsPerVec: c.BucketsPerVec}
			v.name = fmt.Sprintf("horizontal-%d", c.Width)
			v.run = func(e *engine.Engine, from, n int) int {
				return t.LookupHorizontalBatch(e, s, from, n, cfg, res, nil)
			}
		case core.Vertical:
			cfg := cuckoo.VerticalConfig{Width: c.Width}
			v.name = fmt.Sprintf("vertical-%d", c.Width)
			v.run = func(e *engine.Engine, from, n int) int {
				return t.LookupVerticalBatch(e, s, from, n, cfg, res, nil)
			}
		default:
			return nil, fmt.Errorf("unexpected approach %v", c.Approach)
		}
		out = append(out, v)
	}
	return out, nil
}

func (b *lookupBench) round(tr *tracer, chk *checker) (round, error) {
	r := round{layer: map[string]float64{}, sim: map[string]float64{}}
	root := tr.start("round", -1)
	var all [][]core.Measurement
	var fills []string
	var ops float64
	for _, nm := range lookupLayouts {
		ms, fill, o, err := b.layout(tr, root.id, chk, nm[0], nm[1], &r)
		if err != nil {
			return round{}, err
		}
		all = append(all, ms)
		fills = append(fills, fill)
		ops += o
	}
	tr.stop(root)
	r.layer["cuckoo.fill_ns_per_item"] = r.layer["cuckoo.fill_s"] / r.layer["cuckoo.fill_items"] * 1e9
	r.layer["engine.host_ns_per_op"] = r.charged / ops * 1e9
	r.digest = fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%v %+v", fills, all))))
	if b.first == nil {
		b.first = all
	}
	return r, nil
}

// layout fills one table and measures every variant on it, adding its
// timings and statistics to r. It returns the measurements, a summary of the
// fill (items and achieved load factor) and the engine operations the
// charged lookups executed.
func (b *lookupBench) layout(tr *tracer, parent int, chk *checker, n, m int, r *round) ([]core.Measurement, string, float64, error) {
	lname := fmt.Sprintf("%dx%d", n, m)
	ls := tr.start("layout."+lname, parent)
	defer tr.stop(ls)
	p := b.params(n, m)
	warm := p.Queries / 5 // core.Run's default warm-up

	fill := tr.start("cuckoo.fill", ls.id)
	l, err := cuckoo.LayoutForBytes(n, m, keyBits, valBits, b.bytes)
	if err != nil {
		return nil, "", 0, err
	}
	if err := l.Validate(); err != nil {
		return nil, "", 0, err
	}
	space := mem.NewAddressSpace()
	table, err := cuckoo.New(space, l, b.seed)
	if err != nil {
		return nil, "", 0, err
	}
	stored, lf := table.FillRandom(loadFactor, rand.New(rand.NewSource(b.seed+1)))
	fillS := tr.stop(fill)

	gen := tr.start("workload.gen", ls.id)
	g, err := workload.New(stored, workload.Config{Pattern: p.Pattern, HitRate: hitRate, KeyBits: keyBits, Seed: b.seed + 2})
	if err != nil {
		return nil, "", 0, err
	}
	queries := workload.Keys(g, warm+p.Queries)
	stream := cuckoo.NewStream(space, queries, keyBits)
	res := cuckoo.NewResultBuf(space, len(queries), valBits)
	genS := tr.stop(gen)

	check := tr.start("bench.check", ls.id)
	inStored := membership(stored, queries[warm:])
	tr.stop(check)

	variants, err := b.variants(table, stream, res)
	if err != nil {
		return nil, "", 0, err
	}
	r.layer["cuckoo.fill_s"] += fillS
	r.layer["cuckoo.fill_items"] += float64(len(stored))
	r.layer["workload.gen_s"] += genS
	r.setup += fillS + genS

	var ms []core.Measurement
	var ops float64
	for _, v := range variants {
		key := lname + "." + v.name
		vs := tr.start("variant."+key, ls.id)

		w := tr.start("engine.warm", vs.id)
		e := engine.New(b.arch, b.arch.Cores)
		e.SetCharging(false)
		e.Cache.Touch(table.Arena.Base(), table.Arena.Size())
		v.run(e, 0, warm)
		e.SetCharging(true)
		e.ResetCycles()
		warmS := tr.stop(w)

		look := tr.start("cuckoo.lookup", vs.id)
		hits := v.run(e, warm, p.Queries)
		lookS := tr.stop(look)

		mm := measurement(e, v, hits, p.Queries)
		ms = append(ms, mm)
		ops += float64(e.Ops())
		r.setup += warmS
		r.charged += lookS
		r.lookups += float64(p.Queries)
		r.layer["engine.warm_s"] += warmS
		r.layer["cuckoo.lookup_ns_per_key."+key] = lookS / float64(p.Queries) * 1e9
		r.layer["engine.ops."+key] = float64(e.Ops())
		r.sim["sim.cycles_per_lookup."+key] = mm.CyclesPerLookup
		r.sim["sim.dram_per_lookup."+key] = mm.DRAMPerLookup

		check := tr.start("bench.check", vs.id)
		checkResults(chk, key, res, queries, warm, hits, inStored)
		res.Arena.Zero()
		tr.stop(check)
		tr.stop(vs)
	}
	result := core.Result{Scalar: ms[0], Vector: ms[1:]}
	if best, ok := result.Best(); ok {
		r.sim["sim.speedup."+lname] = result.Speedup(best)
	}
	return ms, fmt.Sprintf("%s: %d items, LF %v", lname, len(stored), lf), ops, nil
}

// measurement derives the variant's Measurement from its engine exactly as
// core.Run does.
func measurement(e *engine.Engine, v variant, hits, queries int) core.Measurement {
	cycles := e.Cycles()
	seconds := cycles / (e.Arch.Frequency(v.width) * 1e9)
	m := core.Measurement{
		Choice:             v.choice,
		Scalar:             v.name == "scalar",
		Hits:               hits,
		CyclesPerLookup:    cycles / float64(queries),
		LookupsPerSec:      float64(queries) / seconds,
		MemCyclesPerLookup: e.MemCycles() / float64(queries),
		OpCycles:           make(map[arch.OpClass]float64),
	}
	e.ForEachOpCycle(func(op arch.OpClass, cy float64) {
		m.OpCycles[op] = cy / float64(queries)
	})
	if st, ok := e.Cache.LevelStats("L1D"); ok {
		m.L1HitRate = st.HitRate()
	}
	m.DRAMPerLookup = float64(e.Cache.DRAMAccesses()) / float64(queries)
	for _, name := range e.Cache.Levels() {
		if st, ok := e.Cache.LevelStats(name); ok {
			m.CacheLevels = append(m.CacheLevels, core.LevelStat{Name: name, Hits: st.Hits, Misses: st.Misses})
		}
	}
	m.CacheLevels = append(m.CacheLevels, core.LevelStat{Name: "DRAM", Hits: e.Cache.DRAMAccesses()})
	return m
}

// membership returns a test for "key is in the stored set", indexing
// whichever of the stored keys and the queried keys is smaller.
func membership(stored, queried []uint64) func(uint64) bool {
	if len(stored) <= len(queried) {
		set := make(map[uint64]struct{}, len(stored))
		for _, k := range stored {
			set[k] = struct{}{}
		}
		return func(k uint64) bool { _, ok := set[k]; return ok }
	}
	set := make(map[uint64]bool, len(queried))
	for _, k := range queried {
		set[k] = false
	}
	for _, k := range stored {
		if _, ok := set[k]; ok {
			set[k] = true
		}
	}
	return func(k uint64) bool { return set[k] }
}

// checkResults is the lookup oracle: every measured query of a stored key
// must return cuckoo.PayloadFor(key) in the result buffer, every other key
// must miss (its slot stays zero; no payload is zero), and the variant's
// hit count must equal the oracle's.
func checkResults(chk *checker, variant string, res *cuckoo.ResultBuf, queries []uint64, warm, hits int, inStored func(uint64) bool) {
	bad, want := 0, 0
	for i := warm; i < len(queries); i++ {
		k := queries[i]
		expect := uint64(0)
		if inStored(k) {
			expect = cuckoo.PayloadFor(k, valBits)
			want++
		}
		if res.Get(i) != expect {
			bad++
		}
	}
	n := len(queries) - warm
	chk.count(n, bad, "%s: %d of %d queries returned a wrong payload or hit", variant, bad, n)
	chk.check(hits == want, "%s: %d hits, oracle expects %d", variant, hits, want)
}

// checkEquivalence runs core.Run on each layout and checks that its
// measurements equal the decomposed driver's, every field but the host-time
// ones.
func (b *lookupBench) checkEquivalence(chk *checker) error {
	for i, nm := range lookupLayouts {
		res, err := core.Run(b.params(nm[0], nm[1]))
		if err != nil {
			return fmt.Errorf("core.Run %dx%d: %w", nm[0], nm[1], err)
		}
		got := append([]core.Measurement{res.Scalar}, res.Vector...)
		for j := range got {
			got[j].HostSeconds, got[j].SimSpeed = 0, 0
		}
		chk.check(reflect.DeepEqual(got, b.first[i]),
			"layout %dx%d: the decomposed driver's measurements differ from core.Run's", nm[0], nm[1])
	}
	return nil
}
