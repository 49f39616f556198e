// Command perfbench is the repository benchmark. It measures the simulator
// itself on the host: how many simulated lookups it completes per host
// second, how long set-up takes and how much memory a run holds. It drives
// the layers through their exported functions, checks every simulated output
// against an oracle, and prints one JSON result as the last line of standard
// output. README.md describes the workloads and metrics.
//
// Run it through the launcher, which builds it from source first:
//
//	bash perfbench/run.sh --workload lookup-dram --seed 1 --seconds 45 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"simdhtbench/internal/obs"
)

// minRounds is the fewest rounds a run measures of each kind (untraced, and
// traced with --trace 1), however short --seconds is: medians over fewer
// rounds are too noisy to gate on.
const minRounds = 3

// round is one set-up plus measurement pass of a workload. Every round of a
// run builds its inputs from scratch from the same seed.
type round struct {
	setup   float64            // host seconds before the first charged lookup
	charged float64            // host seconds in the charged region
	lookups float64            // simulated lookups completed in the charged region
	layer   map[string]float64 // per-layer host times and counts
	sim     map[string]float64 // simulated statistics, identical every round
	digest  string             // hash of every simulated statistic
}

// endToEnd returns the round's end-to-end metrics. Whole-run host time is
// set-up plus the charged region; the benchmark's own checks are excluded.
func (r round) endToEnd() map[string]float64 {
	return map[string]float64{
		"sim_mlookups_per_s": r.lookups / r.charged / 1e6,
		"e2e_mlookups_per_s": r.lookups / (r.setup + r.charged) / 1e6,
		"setup_s":            r.setup,
	}
}

// bench is one workload.
type bench interface {
	// round builds the workload's inputs and measures them once, feeding
	// every output check to chk.
	round(tr *tracer, chk *checker) (round, error)
	// checkEquivalence runs the same configuration through the program's
	// own driver and checks that it reproduces the first round's simulated
	// results bitwise. It is called once per run, outside all timing.
	checkEquivalence(chk *checker) error
}

func newBench(name string, seed int64) (bench, error) {
	switch name {
	case "lookup-dram":
		return newLookupBench(64<<20, 200_000, seed), nil
	case "fleet-churn":
		return newFleetBench(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want lookup-dram or fleet-churn)", name)
}

// checker counts output checks and keeps the first few failures.
type checker struct {
	attempted, failed int
	errs              []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	failed := 0
	if !ok {
		failed = 1
	}
	c.count(1, failed, format, args...)
}

// count records attempted checks of which failed did not hold.
func (c *checker) count(attempted, failed int, format string, args ...any) {
	c.attempted += attempted
	if failed == 0 {
		return
	}
	c.failed += failed
	if len(c.errs) < 10 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSpec is one declared metric of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readSpec reads the metric declarations, so the benchmark emits exactly the
// metrics BENCHMARK.json declares and fails on any it does not.
func readSpec(path string) (endToEnd, perLayer []metricSpec, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return spec.EndToEnd, spec.PerLayer, nil
}

func main() {
	name := flag.String("workload", "", "workload: lookup-dram or fleet-churn")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 45, "host seconds to keep measuring rounds for")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced rounds")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	endToEnd, perLayer, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	b, err := newBench(name, seed)
	if err != nil {
		return err
	}

	// Rounds run while each kind has fewer than minRounds, or while another
	// round as long as the last one still ends within --seconds. A traced
	// run alternates untraced and traced rounds, so the tracing overhead
	// compares rounds measured under the same host conditions.
	chk := &checker{}
	var plain, withTrace []round
	var spans *tracer
	start := obs.WallNow()
	for i := 0; ; i++ {
		tr := &tracer{on: traced && i%2 == 1, origin: obs.WallNow()}
		runtime.GC()
		roundStart := obs.WallNow()
		r, err := b.round(tr, chk)
		last := obs.WallSince(roundStart)
		if err != nil {
			return err
		}
		if i > 0 {
			chk.check(r.digest == plain[0].digest, "round %d: simulated statistics differ from round 1", i+1)
		}
		if tr.on {
			withTrace = append(withTrace, r)
			spans = tr
		} else {
			plain = append(plain, r)
		}
		enough := len(plain) >= minRounds && (!traced || len(withTrace) >= minRounds)
		if enough && obs.WallSince(start)+last > time.Duration(seconds)*time.Second {
			break
		}
	}
	peak := peakRSSMB()

	runtime.GC()
	if err := b.checkEquivalence(chk); err != nil {
		return err
	}

	values := medians(plain, round.endToEnd)
	values["peak_rss_mb"] = peak
	values["ops_ok_ratio"] = float64(chk.attempted-chk.failed) / float64(chk.attempted)

	var perRound []map[string]float64
	for _, r := range plain {
		perRound = append(perRound, r.endToEnd())
	}
	report := map[string]any{
		"workload": name,
		"seed":     seed,
		"host":     fingerprint(),
		"rounds":   perRound,
		"digest":   plain[0].digest,
		"sim":      plain[0].sim,
		"failures": chk.errs,
	}
	declared := endToEnd
	if traced {
		declared = perLayer
		layer := medians(withTrace, func(r round) map[string]float64 { return r.layer })
		for k, v := range plain[0].sim {
			layer[k] = v
		}
		tracedE2E := medians(withTrace, round.endToEnd)
		for k, v := range tracedE2E {
			layer["trace.overhead."+k] = (v - values[k]) / values[k]
		}
		layer["trace.spans_mb"] = spans.heldMB()
		path, err := spans.write(name, seed)
		if err != nil {
			return err
		}
		report["traced_rounds"] = len(withTrace)
		report["spans_file"] = path
		report["self_s"] = spans.selfByName()
		report["traced_end_to_end"] = tracedE2E
		values = layer
	}

	metrics, err := pick(values, declared, traced)
	if err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// pick selects the declared metrics from values. Every value must be
// declared. A declared per-layer metric of a layer this workload does not
// run reads 0; a declared end-to-end metric must be measured.
func pick(values map[string]float64, declared []metricSpec, zeroMissing bool) (map[string]metric, error) {
	out := make(map[string]metric, len(declared))
	for _, d := range declared {
		v, ok := values[d.Name]
		if !ok && !zeroMissing {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	var undeclared []string
	for k := range values {
		if _, ok := out[k]; !ok {
			undeclared = append(undeclared, k)
		}
	}
	if len(undeclared) > 0 {
		sort.Strings(undeclared)
		return nil, fmt.Errorf("metrics not declared in BENCHMARK.json: %v", undeclared)
	}
	return out, nil
}

// medians returns, for every key the rounds report, the median of its values.
func medians(rounds []round, get func(round) map[string]float64) map[string]float64 {
	byKey := map[string][]float64{}
	for _, r := range rounds {
		for k, v := range get(r) {
			byKey[k] = append(byKey[k], v)
		}
	}
	out := make(map[string]float64, len(byKey))
	for k, vs := range byKey {
		sort.Float64s(vs)
		n := len(vs)
		out[k] = (vs[(n-1)/2] + vs[n/2]) / 2
	}
	return out
}
