package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"simdhtbench/internal/obs"
)

// span is one host-time interval around a call into a layer.
type span struct {
	name       string
	parent     int   // index of the enclosing span; -1 at the root
	start, end int64 // host nanoseconds since the tracer's origin
}

// calls aggregates one kind of frequent call made inside a span. The index
// is called millions of times a round; a span per call would cost more
// memory and host time than the calls it times.
type calls struct {
	name   string
	parent int
	count  int
	ns     int64
}

// tracer times the calls the benchmark makes into each layer. It always
// returns durations; only when on does it also keep each interval as a span
// in memory, to be written out when the run ends.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
	calls  []calls
}

// mark is an open interval returned by start.
type mark struct {
	id int // span index, or -1 when the tracer is off
	t0 time.Time
}

func (t *tracer) start(name string, parent int) mark {
	m := mark{id: -1, t0: obs.WallNow()}
	if t.on {
		m.id = len(t.spans)
		t.spans = append(t.spans, span{name: name, parent: parent, start: int64(m.t0.Sub(t.origin))})
	}
	return m
}

// stop closes the interval and returns its length in seconds.
func (t *tracer) stop(m mark) float64 {
	t1 := obs.WallNow()
	if m.id >= 0 {
		t.spans[m.id].end = int64(t1.Sub(t.origin))
	}
	return t1.Sub(m.t0).Seconds()
}

// addCalls records count calls named name, made inside span parent, that
// took d in total.
func (t *tracer) addCalls(name string, parent, count int, d time.Duration) {
	if t.on && count > 0 {
		t.calls = append(t.calls, calls{name: name, parent: parent, count: count, ns: int64(d)})
	}
}

// selfNs returns each span's self time: its length minus the part its
// child spans and aggregated calls cover. Spans nest and never overlap,
// since one goroutine runs every layer.
func (t *tracer) selfNs() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	for _, c := range t.calls {
		self[c.parent] -= c.ns
	}
	return self
}

// selfOf returns the self time, in seconds, of the span with index id.
func (t *tracer) selfOf(id int) float64 {
	if id < 0 {
		return 0
	}
	return float64(t.selfNs()[id]) / 1e9
}

// selfByName sums self time by span name, in seconds.
func (t *tracer) selfByName() map[string]float64 {
	out := map[string]float64{}
	for i, ns := range t.selfNs() {
		out[t.spans[i].name] += float64(ns) / 1e9
	}
	for _, c := range t.calls {
		out[c.name] += float64(c.ns) / 1e9
	}
	return out
}

// heldMB is the memory the span buffer holds, which tracing adds to the
// run's resident set.
func (t *tracer) heldMB() float64 {
	return (float64(cap(t.spans))*float64(unsafe.Sizeof(span{})) +
		float64(cap(t.calls))*float64(unsafe.Sizeof(calls{}))) / (1 << 20)
}

// write stores the spans of the last traced round, one tab-separated line
// each (id, parent, name, start ns, end ns, self ns), then one line per
// aggregated call kind (parent, name, count, total ns), under
// .bench_build/perfbench, and returns the file's path.
func (t *tracer) write(workload string, seed int64) (path string, err error) {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path = filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.tsv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("writing %s: %w", path, cerr)
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns\tself_ns")
	for i, ns := range t.selfNs() {
		s := t.spans[i]
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", i, s.parent, s.name, s.start, s.end, ns)
	}
	fmt.Fprintln(w, "parent\tname\tcalls\ttotal_ns")
	for _, c := range t.calls {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\n", c.parent, c.name, c.count, c.ns)
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}

// peakRSSMB returns the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// host identifies the machine a result was measured on, so results from
// different hosts are never compared.
type host struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
}

func fingerprint() host {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return host{
		CPU:        cpu,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
	}
}
