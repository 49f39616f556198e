// Package parcase is a parlint test fixture, loaded under the synthetic
// import path simdhtbench/internal/parcase. It exercises the worker-set
// shared-write rule; each "want" comment states the diagnostic the harness
// expects on that line.
package parcase

import "sync"

var pkgCounter int

type stats struct{ N int }

func compute(i int) int { return i * i }

func goodPerSlot(n int) []int {
	results := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = compute(i) // legal: per-slot write, merged in canonical order
		}(i)
	}
	wg.Wait()
	return results
}

func goodChannel(n int) int {
	ch := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			ch <- compute(i) // legal: channel send; the spawner merges
		}(i)
	}
	total := 0
	for i := 0; i < n; i++ {
		total += <-ch
	}
	return total
}

func badAccumulate(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		go func(i int) {
			total += compute(i) // want `write to total, shared across workers spawned in badAccumulate; worker output must flow through the per-slot slice or a channel merged in canonical order`
		}(i)
	}
	return total
}

func badCounter(n int) int {
	count := 0
	for i := 0; i < n; i++ {
		go func() {
			count++ // want `write to count, shared across workers spawned in badCounter`
		}()
	}
	return count
}

func badAppend(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		go func(i int) {
			out = append(out, compute(i)) // want `write to out, shared across workers spawned in badAppend`
		}(i)
	}
	return out
}

func badMap(n int) map[int]int {
	m := make(map[int]int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			m[i] = compute(i) // want `map write into m, shared across workers spawned in badMap`
		}(i)
	}
	return m
}

func badField(n int) stats {
	var st stats
	for i := 0; i < n; i++ {
		go func(i int) {
			st.N = compute(i) // want `write through st, shared across workers spawned in badField`
		}(i)
	}
	return st
}

func badPackageLevel(n int) {
	for i := 0; i < n; i++ {
		go func(i int) {
			pkgCounter += i // want `write to pkgCounter, shared across workers spawned in badPackageLevel`
		}(i)
	}
}

// closureWorkerSet pulls a named local closure into the worker set: its
// per-slot write is sanctioned, its shared-accumulator write is not.
func closureWorkerSet(n int) []int {
	results := make([]int, n)
	misses := 0
	exec := func(i int) {
		results[i] = compute(i) // legal: per-slot write through the pulled-in closure
		if results[i] == 0 {
			misses++ // want `write to misses, shared across workers spawned in closureWorkerSet`
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			exec(i)
		}(i)
	}
	wg.Wait()
	_ = misses
	return results
}

func localDerived(n int) []stats {
	out := make([]stats, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			st := &out[i]
			st.N = compute(i) // legal: st is worker-local, derived from the per-slot address
		}(i)
	}
	return out
}

// partitionWorkers mirrors a windowed parallel simulation loop: persistent
// workers striped over partitions, fed window horizons over channels. The
// striped counts write is the sanctioned per-slot shape; the shared arrival
// map is the planted cross-partition violation — merged state must flow
// through per-slot slices (or a channel) and be combined in canonical order
// by the driver, never written from two partition workers.
func partitionWorkers(parts, workers int) []uint64 {
	counts := make([]uint64, parts)
	arrivals := make(map[int]uint64, parts)
	start := make([]chan float64, workers)
	for w := 1; w < workers; w++ {
		start[w] = make(chan float64, 1)
		go func(w int) {
			for range start[w] {
				for p := w; p < parts; p += workers {
					counts[p] = uint64(compute(p)) // legal: per-slot write through the worker's stripe
					arrivals[p] = counts[p]        // want `map write into arrivals, shared across workers spawned in partitionWorkers`
				}
			}
		}(w)
	}
	_ = arrivals
	return counts
}

func nestedWorker(n int) {
	total := 0
	for i := 0; i < n; i++ {
		go func() {
			func() {
				total++ // want `write to total, shared across workers spawned in nestedWorker`
			}()
		}()
	}
	_ = total
}
