package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"time"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/des"
	"simdhtbench/internal/engine"
	"simdhtbench/internal/experiments"
	"simdhtbench/internal/fault"
	"simdhtbench/internal/kvs"
	"simdhtbench/internal/mem"
	"simdhtbench/internal/memslap"
	"simdhtbench/internal/netsim"
	"simdhtbench/internal/obs"
)

// The fleet-churn configuration: the 16-server point of the fleet study
// (experiments.FleetStudyPoint) with its defaults, at a longer request count.
const (
	fleetServers  = 16
	fleetItems    = 50_000
	fleetRepl     = 3
	fleetWorkers  = 26
	fleetClients  = 26
	fleetBatch    = 16
	fleetRequests = 12_000
	fleetRate     = 2e5  // open-loop Poisson arrivals, requests per virtual second
	fleetWrites   = 0.05 // share of requests that are quorum writes
	// fleetFaults is the fleet study's default fault spec: crash churn with
	// ring Leave/Join, a little network loss and the client retry protocol.
	fleetFaults = "drop=0.002,crash=5ms:1ms,timeout=100µs,retries=3,backoff=20µs"
)

// fleetBench is experiments.FleetStudyPoint decomposed into its layer
// calls, so that construction, load and the run are timed apart and, in
// traced rounds, every index call is timed.
type fleetBench struct {
	seed  int64
	first memslap.FleetResults // round 1's results
}

func newFleetBench(seed int64) *fleetBench {
	if seed == 0 {
		seed = 7 // the seed the fleet study substitutes for 0
	}
	return &fleetBench{seed: seed}
}

// indexTimer accumulates the host time and count of the index calls the
// servers make.
type indexTimer struct {
	lookup, insert           time.Duration
	lookupCalls, insertCalls int
}

// flush records the calls accumulated so far as made inside span parent,
// and returns and resets them.
func (t *indexTimer) flush(tr *tracer, parent int) indexTimer {
	tr.addCalls("kvs.LookupBatch", parent, t.lookupCalls, t.lookup)
	tr.addCalls("kvs.Insert", parent, t.insertCalls, t.insert)
	out := *t
	*t = indexTimer{}
	return out
}

// timedIndex wraps a server's kvs.Index to time every lookup and insert.
type timedIndex struct {
	kvs.Index
	t *indexTimer
}

func (x *timedIndex) LookupBatch(e *engine.Engine, store *kvs.ItemStore, keys [][]byte, hashes []uint32, refs []uint32) int {
	t0 := obs.WallNow()
	hits := x.Index.LookupBatch(e, store, keys, hashes, refs)
	x.t.lookup += obs.WallSince(t0)
	x.t.lookupCalls++
	return hits
}

func (x *timedIndex) Insert(hash32, ref uint32) error {
	t0 := obs.WallNow()
	err := x.Index.Insert(hash32, ref)
	x.t.insert += obs.WallSince(t0)
	x.t.insertCalls++
	return err
}

func (b *fleetBench) round(tr *tracer, chk *checker) (round, error) {
	root := tr.start("round", -1)
	defer tr.stop(root)
	timer := &indexTimer{}

	build := tr.start("memslap.build", root.id)
	spec, err := fault.ParseSpec(fleetFaults)
	if err != nil {
		return round{}, err
	}
	plan := spec.NewPlan(b.seed)
	sim := des.New()
	fabric := netsim.New(sim, netsim.EDR())
	fabric.Faults = plan
	servers := make([]*kvs.Server, fleetServers)
	for i := range servers {
		space := mem.NewAddressSpace()
		store := kvs.NewItemStore(space)
		// The fleet study's per-server index capacity.
		capacity := min((fleetItems*(fleetRepl+1)+fleetServers-1)/fleetServers, fleetItems) + fleetItems/8
		idx, err := kvs.NewVerticalIndex(space, capacity, 256, b.seed+int64(i))
		if err != nil {
			return round{}, err
		}
		var index kvs.Index = idx
		if tr.on {
			index = &timedIndex{Index: idx, t: timer}
		}
		servers[i] = kvs.NewServer(sim, arch.SkylakeClusterB(), fleetWorkers, 256, index, store)
		servers[i].Faults = plan.ForServer(i)
	}
	fleet, err := memslap.NewFleet(sim, fabric, servers, fleetRepl)
	if err != nil {
		return round{}, err
	}
	buildS := tr.stop(build)

	load := tr.start("memslap.load", root.id)
	if _, err := fleet.LoadFleet(fleetItems, 20, 32); err != nil {
		return round{}, err
	}
	loadS := tr.stop(load)
	timer.flush(tr, load.id)

	run := tr.start("memslap.run", root.id)
	res, err := memslap.RunFleet(fleet, fleetConfig(plan, b.seed))
	runS := tr.stop(run)
	index := timer.flush(tr, run.id)
	chk.check(err == nil, "RunFleet: %v", err)
	if err != nil {
		return round{}, err
	}

	// Oracle: every requested key was either returned or counted missing,
	// and the simulation drained.
	reads := uint64(res.Requests) - res.Writes - res.WritesFailed
	requested := reads * fleetBatch
	returned := uint64(math.Round(float64(requested) * res.GoodputKeys / res.ThroughputKeys))
	chk.check(returned+res.KeysMissing == requested,
		"fleet: %d keys requested, %d returned + %d missing", requested, returned, res.KeysMissing)
	chk.check(sim.Pending() == 0, "fleet: %d events still pending after the run", sim.Pending())

	var served, replicaItems uint64
	for _, s := range servers {
		served += s.KeysServed
		replicaItems += s.ReplicaItems
	}
	events := float64(sim.Dispatched())
	r := round{
		setup:   buildS + loadS,
		charged: runS,
		lookups: float64(fleetRequests * fleetBatch),
		layer: map[string]float64{
			"memslap.build_s":          buildS,
			"memslap.load_s":           loadS,
			"memslap.run_s":            runS,
			"memslap.other_s":          tr.selfOf(run.id),
			"memslap.failovers":        float64(res.Failovers),
			"memslap.retries":          float64(res.Retries),
			"memslap.epochs":           float64(res.Epochs),
			"memslap.keys_moved":       float64(res.KeysMoved),
			"memslap.goodput_ratio":    res.GoodputKeys / res.ThroughputKeys,
			"des.events":               events,
			"des.host_ns_per_event":    runS / events * 1e9,
			"netsim.messages":          float64(fabric.MessagesSent()),
			"netsim.dropped":           float64(fabric.MessagesDropped()),
			"kvs.index_lookup_s":       index.lookup.Seconds(),
			"kvs.index_lookup_calls":   float64(index.lookupCalls),
			"kvs.index_insert_s":       index.insert.Seconds(),
			"kvs.index_insert_calls":   float64(index.insertCalls),
			"kvs.keys_served":          float64(served),
			"kvs.served_per_requested": float64(served) / float64(requested),
			"kvs.replica_items":        float64(replicaItems),
		},
		sim: map[string]float64{
			"sim.p50_us":              res.P50Latency * 1e6,
			"sim.p99_us":              res.P99Latency * 1e6,
			"sim.goodput_mkeys_per_s": res.GoodputKeys / 1e6,
		},
	}
	r.digest = fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v events=%d messages=%d dropped=%d served=%d replica=%d",
		res, sim.Dispatched(), fabric.MessagesSent(), fabric.MessagesDropped(), served, replicaItems))))
	if b.first == (memslap.FleetResults{}) {
		b.first = res
	}
	return r, nil
}

// fleetConfig is the fleet study's run configuration.
func fleetConfig(plan *fault.Plan, seed int64) memslap.FleetConfig {
	return memslap.FleetConfig{
		Config: memslap.Config{
			Clients:   fleetClients,
			BatchSize: fleetBatch,
			Requests:  fleetRequests,
			KeyBytes:  20,
			Seed:      seed,
			Faults:    plan,
		},
		ArrivalRate:   fleetRate,
		WriteFraction: fleetWrites,
		Churn:         plan.Spec().CrashPeriod > 0,
	}
}

// checkEquivalence runs experiments.FleetStudyPoint at the same settings,
// with its own default fault spec, and checks that its results equal the
// decomposed driver's bitwise.
func (b *fleetBench) checkEquivalence(chk *checker) error {
	got, err := experiments.FleetStudyPoint(fleetServers, experiments.FleetOptions{
		KVSOptions: experiments.KVSOptions{
			Items: fleetItems, Workers: fleetWorkers, Clients: fleetClients,
			Requests: fleetRequests, Batches: []int{fleetBatch}, Seed: b.seed,
		},
		FleetSizes:    []int{fleetServers},
		Replication:   fleetRepl,
		ArrivalRate:   fleetRate,
		WriteFraction: fleetWrites,
	})
	if err != nil {
		return fmt.Errorf("FleetStudyPoint: %w", err)
	}
	chk.check(reflect.DeepEqual(got, b.first), "fleet: the decomposed driver's results differ from FleetStudyPoint's")
	return nil
}
