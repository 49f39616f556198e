package experiments

import (
	"bytes"
	"strings"
	"testing"

	"simdhtbench/internal/fault"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/obs/prof"
)

// fleetSpecCLI is the exact -faults argument of the ci.sh fleet smoke step.
// Tuned to the golden run's virtual-time horizon (~72 arrivals at 200k/s ≈
// 360 us): each churn server crashes — and Leaves the ring — a few times,
// the timeout covers healthy latency, and light loss keeps failover honest.
const fleetSpecCLI = "drop=0.05,crash=100µs:30µs,timeout=10µs,retries=2,backoff=5µs"

// runFleetStudyObs mirrors `kvsbench -fleet -items 2000 -workers 2
// -clients 2 -requests 60 -batches 8 -seed 7 -fleet-sizes 3,5
// -arrival-rate 200000 -faults '<spec>' -trace -metrics -profile cycles`.
// Profiling is neutral, so the trace and metrics still match the goldens.
func runFleetStudyObs(t *testing.T, parallel int) (table, traceJSON, metricsCSV, folded []byte) {
	t.Helper()
	spec, err := fault.ParseSpec(fleetSpecCLI)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	set := prof.NewSet()
	col.EnableProfiling(set)
	o := FleetOptions{
		KVSOptions:  kvsObsOptions(parallel, col),
		FleetSizes:  []int{3, 5},
		ArrivalRate: 2e5,
	}
	o.Requests = 60
	o.Faults = spec
	tbl, err := FleetStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf, fb bytes.Buffer
	tbl.Fprint(&buf)
	if err := set.WriteFolded(&fb); err != nil {
		t.Fatal(err)
	}
	tr, ms := renderObs(t, col)
	return buf.Bytes(), tr, ms, fb.Bytes()
}

// TestObsGoldenFleetStudy pins the fleet study's three artifacts and the
// capstone determinism contract: replicated reads, quorum writes, failovers
// and rebalance storms produce byte-identical tables, metrics CSV, trace
// JSON and folded cycle profiles at -parallel 1, 4 and 16.
func TestObsGoldenFleetStudy(t *testing.T) {
	tbl1, tr1, ms1, fp1 := runFleetStudyObs(t, 1)
	for _, parallel := range []int{4, 16} {
		tbl, tr, ms, fp := runFleetStudyObs(t, parallel)
		if !bytes.Equal(tbl1, tbl) {
			t.Fatalf("fleet table diverges between -parallel 1 and -parallel %d", parallel)
		}
		if !bytes.Equal(tr1, tr) || !bytes.Equal(ms1, ms) {
			t.Fatalf("fleet obs artifacts diverge between -parallel 1 and -parallel %d", parallel)
		}
		if !bytes.Equal(fp1, fp) {
			t.Fatalf("fleet folded profile diverges between -parallel 1 and -parallel %d", parallel)
		}
	}
	if len(fp1) == 0 {
		t.Fatal("fleet folded profile is empty")
	}
	checkGolden(t, "fleet_study_table.golden.txt", tbl1)
	checkGolden(t, "fleet_study_trace.golden.json", tr1)
	checkGolden(t, "fleet_study_metrics.golden.csv", ms1)

	// The fleet machinery must actually bite: membership epochs, ownership
	// transfers, replica reads and quorum writes all leave counters.
	for _, series := range []string{
		"fleet_epochs_total",
		"fleet_keys_moved_total",
		"fleet_rebalances_done_total",
		"fleet_replica_reads_total",
		"fleet_quorum_writes_total",
		"fault_crash_drops_total",
	} {
		if !strings.Contains(string(ms1), series) {
			t.Errorf("metrics artifact missing %s", series)
		}
	}
}

// TestFleetSpecRoundTripsCLI guards the ci.sh invocation: the committed
// fleet fault spec must parse and re-render canonically.
func TestFleetSpecRoundTripsCLI(t *testing.T) {
	spec, err := fault.ParseSpec(fleetSpecCLI)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.String(); got != fleetSpecCLI {
		t.Errorf("spec renders %q, want %q", got, fleetSpecCLI)
	}
}
