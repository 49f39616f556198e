package kvs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/des"
	"simdhtbench/internal/mem"
)

// lazyTrace records everything a server hands back, in completion order,
// with floats as bit patterns so the comparison is bitwise.
type lazyTrace struct {
	events []string
}

func (tr *lazyTrace) mget(tag string, r MGetResult) {
	vals := ""
	for _, v := range r.Values {
		if v == nil {
			vals += "<nil>,"
		} else {
			vals += fmt.Sprintf("%q,", v)
		}
	}
	tr.events = append(tr.events, fmt.Sprintf("%s found=%d resp=%d rej=%v pre=%x lookup=%x post=%x vals=%s",
		tag, r.Found, r.RespBytes, r.Rejected,
		math.Float64bits(r.Breakdown.Pre), math.Float64bits(r.Breakdown.Lookup), math.Float64bits(r.Breakdown.Post), vals))
}

// runLazyScenario builds a server over a loaded index, optionally forces
// every worker engine into existence before the first WarmCaches (the
// eager construction the server used to do), and drives a deterministic
// high-concurrency stream of Multi-Gets, replica writes, functional
// Get/Replace calls and a second WarmCaches through it.
func runLazyScenario(t *testing.T, mkIndex func(space *mem.AddressSpace, capacity, maxBatch int) (Index, error), eager bool) (*Server, []string) {
	t.Helper()
	const (
		workers  = 8
		items    = 3000
		maxBatch = 32
	)
	sim := des.New()
	space := mem.NewAddressSpace()
	store := NewItemStore(space)
	idx, err := mkIndex(space, items+512, maxBatch)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sim, arch.SkylakeClusterB(), workers, maxBatch, idx, store)
	keys := make([][]byte, items)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("lazy-key-%08d", i))
		if _, err := srv.Set(keys[i], []byte(fmt.Sprintf("value-%d-%s", i, make([]byte, i%40)))); err != nil {
			t.Fatal(err)
		}
	}
	// A functional lookup before warm-up builds engine 0 on the lazy
	// server, so the built-before-warm path is covered too.
	if _, ok := srv.Get(keys[5]); !ok {
		t.Fatal("Get of a loaded key missed")
	}
	if eager {
		for wi := 0; wi < workers; wi++ {
			srv.workerEngine(wi)
		}
	}
	srv.WarmCaches()

	tr := &lazyTrace{}
	rng := rand.New(rand.NewSource(99))
	batch := func() [][]byte {
		b := make([][]byte, 1+rng.Intn(2*maxBatch)) // some batches are chunked
		for i := range b {
			if rng.Intn(10) == 0 {
				b[i] = []byte(fmt.Sprintf("absent-%d", rng.Intn(1000)))
			} else {
				b[i] = keys[rng.Intn(items)]
			}
		}
		return b
	}
	burst := func(at float64, n int, round int) {
		sim.At(at, func() {
			for j := 0; j < n; j++ {
				tag := fmt.Sprintf("r%d/%d", round, j)
				if j%5 == 4 {
					repl := make([]ReplicaItem, 1+rng.Intn(6))
					for k := range repl {
						repl[k] = ReplicaItem{
							Key:   keys[rng.Intn(items)],
							Value: []byte(fmt.Sprintf("rewritten-%d-%d", round, k)),
						}
					}
					srv.HandleReplicate(repl, func(applied int) {
						tr.events = append(tr.events, fmt.Sprintf("%s replicate applied=%d", tag, applied))
					})
					continue
				}
				srv.HandleMGet(batch(), func(r MGetResult) { tr.mget(tag, r) })
			}
		})
	}
	// Round 0 keeps fewer requests in flight than there are workers, so
	// some of the lazy server's engines are still unbuilt at the second
	// warm-up; rounds 1-3 oversubscribe the pool and use every worker.
	burst(0, workers/2, 0)
	sim.Run()
	if v, ok := srv.Get(keys[7]); ok {
		tr.events = append(tr.events, fmt.Sprintf("get %q", v))
	}
	if _, err := srv.Replace(keys[9], []byte("replaced-between-rounds")); err != nil {
		t.Fatal(err)
	}
	srv.WarmCaches()
	for round := 1; round <= 3; round++ {
		burst(sim.Now()+float64(round)*1e-6, 3*workers, round)
	}
	sim.Run()
	return srv, tr.events
}

// TestLazyWorkerEnginesBitIdentical pins workerEngine's claim: a server
// whose engines are built on first use (cloned from the warmed snapshot)
// returns bitwise the same results, counters and per-engine cache state as
// one whose every engine existed before WarmCaches.
func TestLazyWorkerEnginesBitIdentical(t *testing.T) {
	indexes := map[string]func(space *mem.AddressSpace, capacity, maxBatch int) (Index, error){
		"vertical": func(space *mem.AddressSpace, capacity, maxBatch int) (Index, error) {
			return NewVerticalIndex(space, capacity, maxBatch, 3)
		},
		"horizontal": func(space *mem.AddressSpace, capacity, maxBatch int) (Index, error) {
			return NewHorizontalIndex(space, capacity, maxBatch, 3)
		},
		"memc3": func(space *mem.AddressSpace, capacity, _ int) (Index, error) {
			return NewMemC3Index(space, capacity, 3), nil
		},
	}
	for _, name := range []string{"vertical", "horizontal", "memc3"} {
		t.Run(name, func(t *testing.T) {
			eager, eagerTrace := runLazyScenario(t, indexes[name], true)
			lazy, lazyTrace := runLazyScenario(t, indexes[name], false)
			if len(eagerTrace) != len(lazyTrace) {
				t.Fatalf("eager server produced %d results, lazy %d", len(eagerTrace), len(lazyTrace))
			}
			for i := range eagerTrace {
				if eagerTrace[i] != lazyTrace[i] {
					t.Fatalf("result %d differs:\n eager %s\n lazy  %s", i, eagerTrace[i], lazyTrace[i])
				}
			}
			counters := func(s *Server) string {
				return fmt.Sprintf("batches=%d served=%d found=%d evictions=%d replBatches=%d replItems=%d pre=%x lookup=%x post=%x",
					s.Batches, s.KeysServed, s.KeysFound, s.Evictions, s.ReplicaBatches, s.ReplicaItems,
					math.Float64bits(s.PhaseTotals.Pre), math.Float64bits(s.PhaseTotals.Lookup), math.Float64bits(s.PhaseTotals.Post))
			}
			if e, l := counters(eager), counters(lazy); e != l {
				t.Fatalf("server counters differ:\n eager %s\n lazy  %s", e, l)
			}
			for wi := range lazy.engines {
				le, ee := lazy.engines[wi], eager.engines[wi]
				if le == nil {
					t.Fatalf("worker %d never served: the stream does not cover every engine", wi)
				}
				if math.Float64bits(le.Cycles()) != math.Float64bits(ee.Cycles()) || le.Ops() != ee.Ops() || le.MaxWidth() != ee.MaxWidth() {
					t.Fatalf("worker %d engine: eager %v cycles/%d ops/width %d, lazy %v/%d/%d",
						wi, ee.Cycles(), ee.Ops(), ee.MaxWidth(), le.Cycles(), le.Ops(), le.MaxWidth())
				}
				for _, lvl := range ee.Cache.Levels() {
					es, _ := ee.Cache.LevelStats(lvl)
					ls, _ := le.Cache.LevelStats(lvl)
					if es != ls {
						t.Fatalf("worker %d %s stats: eager %+v, lazy %+v", wi, lvl, es, ls)
					}
				}
				if ee.Cache.DRAMAccesses() != le.Cache.DRAMAccesses() {
					t.Fatalf("worker %d DRAM fills: eager %d, lazy %d", wi, ee.Cache.DRAMAccesses(), le.Cache.DRAMAccesses())
				}
			}
		})
	}
}
