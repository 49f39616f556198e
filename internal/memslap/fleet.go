package memslap

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"simdhtbench/internal/des"
	"simdhtbench/internal/hashfn"
	"simdhtbench/internal/kvs"
	"simdhtbench/internal/netsim"
	"simdhtbench/internal/obs"
	"simdhtbench/internal/workload"
)

// Fleet-scale replication constants. Transfer and write frames carry
// per-item overhead like the MGet request frames; rebalance ships items in
// protocol-sized batches so a storm is many charged messages, not one
// teleported blob.
const (
	rebalanceBatchItems      = 64
	replicaItemOverheadBytes = 24
	replicaAckBytes          = 16

	// arrivalSeedOffset derives the open-loop arrival RNG stream from the
	// workload seed without entangling it with the zipf key draws.
	arrivalSeedOffset int64 = 0x9E3779B9

	// eventBudgetPerMovedKey sizes the watchdog slack for rebalance storms
	// (a 64-item transfer batch costs ~6 events, so 8 per key is generous).
	eventBudgetPerMovedKey = 8
)

// Fleet is a replicated KVS cluster on one simulation: N servers behind a
// consistent-hash ring with R-way replica sets, membership epochs
// (Join/Leave → rebalance storms charged through the engines and fabric),
// quorum writes and read-repair. The zero-fault, replication=1 fleet is
// event-for-event the legacy RunCluster pipeline — the differential tests
// pin that equivalence bitwise.
type Fleet struct {
	Sim         *des.Sim
	Fabric      *netsim.Fabric
	Servers     []*kvs.Server // indexed by server id; ring members ⊆ [0, len)
	Ring        *kvs.Ring
	Replication int
	WriteQuorum int // acks required per replicated write; 0 = majority

	// Probe, when non-nil, observes epochs, rebalances, replica reads,
	// failovers, repairs and quorum writes (obs layer).
	Probe obs.FleetProbe

	serverEPs []*netsim.Endpoint
	keys      [][]byte          // loaded keys, in load order (rebalance iteration order)
	keyHashes []uint64          // hashfn.HashBytes of each loaded key, computed once
	sets      replicaSets       // each loaded key's replica set on one ring
	expected  map[string][]byte // canonical contents, for divergence detection
	repairing map[repairKey]bool
	ownA      []int // ReplicaOwners scratch
	ownB      []int

	// Run counters, copied into FleetResults.
	Epochs    uint64
	KeysMoved uint64 // ownership transfers enqueued by rebalance
	KeysLost  uint64 // keys whose last live replica vanished (no donor)
	Repairs   uint64 // read-repair writes acknowledged
	Failovers uint64 // sub-batch retries rotated to the next replica

	// Overload-control counters (armed by the fault plan's hedge=/budget=
	// keys), copied into FleetResults.
	Hedges       uint64 // hedged duplicate reads issued after the hedge delay
	HedgeWins    uint64 // hedges whose response resolved keys before the primary
	BudgetDenied uint64 // retries forgone because the client budget was empty
}

type repairKey struct {
	server int
	key    string
}

// replicaSets holds every loaded key's replica set on one ring, so a
// rebalance walks only the rings it must: the new ring for the keys a
// membership change can move, never the old ring again.
type replicaSets struct {
	ring *kvs.Ring // the ring the sets were computed on; nil = none yet
	m    int       // set size on ring: min(Replication, members)
	sets []int     // key i's set is sets[i*Replication : i*Replication+m]
}

// NewFleet builds a fleet of the given servers with R-way replication on a
// fresh epoch-0 ring.
func NewFleet(sim *des.Sim, fabric *netsim.Fabric, servers []*kvs.Server, replication int) (*Fleet, error) {
	if len(servers) == 0 {
		return nil, &ConfigError{Field: "servers", Reason: "fleet needs at least one server"}
	}
	if replication < 1 {
		replication = 1
	}
	if replication > len(servers) {
		return nil, &ConfigError{Field: "replication",
			Reason: fmt.Sprintf("replication %d exceeds %d servers", replication, len(servers))}
	}
	ring, err := kvs.NewRing(len(servers), 0)
	if err != nil {
		return nil, err
	}
	eps := make([]*netsim.Endpoint, len(servers))
	for i := range eps {
		eps[i] = fabric.Endpoint(fmt.Sprintf("server-%d", i))
	}
	return &Fleet{
		Sim:         sim,
		Fabric:      fabric,
		Servers:     servers,
		Ring:        ring,
		Replication: replication,
		serverEPs:   eps,
		expected:    make(map[string][]byte),
		repairing:   make(map[repairKey]bool),
		ownA:        make([]int, 0, replication+1),
		ownB:        make([]int, 0, replication+1),
	}, nil
}

// Keys returns the loaded key set (load order).
func (f *Fleet) Keys() [][]byte { return f.keys }

// LoadFleet loads `count` memslap-style items, placing each on all R
// replicas of its key. The key sequence (and its Hash32 dedup) is exactly
// LoadCluster's, so a replication=1 fleet holds bitwise the same data as
// the legacy cluster loader.
func (f *Fleet) LoadFleet(count, keyBytes, valueBytes int) ([][]byte, error) {
	R := f.Replication
	hashes := make([]uint64, 0, count)
	sets := replicaSets{ring: f.Ring, m: min(R, f.Ring.Servers()), sets: make([]int, count*R)}
	keys, err := loadRingKeys(count, keyBytes, valueBytes, func(key, value []byte) (int, error) {
		h := hashfn.HashBytes(key)
		owners := f.Ring.ReplicaOwnersHash(h, R, f.ownA)
		for _, s := range owners {
			if _, err := f.Servers[s].Set(key, value); err != nil {
				return s, err
			}
		}
		f.expected[string(key)] = value
		copy(sets.sets[len(hashes)*R:], owners)
		hashes = append(hashes, h)
		return -1, nil
	})
	if err != nil {
		return nil, err
	}
	f.keys, f.keyHashes, f.sets = keys, hashes, sets
	return keys, nil
}

// Leave removes server id from the ring (next epoch), wipes its store —
// the crash model is a dead process, not a graceful drain — and starts the
// rebalance that re-establishes R live replicas for the keys it held.
func (f *Fleet) Leave(id int) error {
	nr, err := f.Ring.Leave(id)
	if err != nil {
		return err
	}
	f.Servers[id].Wipe()
	f.advanceRing(nr, id, false)
	return nil
}

// Join adds server id back to the ring (next epoch) and starts the
// rebalance that streams its share of the key space onto it — it rejoined
// cold, so everything it now owns must be transferred.
func (f *Fleet) Join(id int) error {
	if id < 0 || id >= len(f.Servers) {
		return &ConfigError{Field: "server", Reason: fmt.Sprintf("server %d outside fleet of %d", id, len(f.Servers))}
	}
	nr, err := f.Ring.Join(id)
	if err != nil {
		return err
	}
	f.advanceRing(nr, id, true)
	return nil
}

// advanceRing installs the new epoch and ships the ownership transfers it
// implies: for every key whose replica set gained a server, a surviving
// replica streams the item to the new owner in rebalanceBatchItems-sized
// messages, each applied through the destination's charged HandleReplicate.
// Transfers compete with foreground traffic for NICs and workers — nothing
// is teleported. A key with no live donor is counted lost (with R=1 a
// wiped server's data is simply gone until rewritten).
//
// nr must be f.Ring.Join(server) when join is set, else
// f.Ring.Leave(server). The old sets come from the previous epoch's
// (recomputed only when f.Ring was replaced from outside). A Leave recomputes only the sets that
// held server: any other key's clockwise walk filled its set before
// reaching one of server's vnodes, so removing them changes nothing it saw.
// It returns the transfer groups it ships, in shipping order.
func (f *Fleet) advanceRing(nr *kvs.Ring, server int, join bool) []*transferGroup {
	old := f.Ring
	R := f.Replication
	if f.sets.ring != old {
		f.sets = replicaSets{ring: old, m: min(R, old.Servers()), sets: make([]int, len(f.keys)*R)}
		for i, h := range f.keyHashes {
			copy(f.sets.sets[i*R:], old.ReplicaOwnersHash(h, R, f.ownA))
		}
	}
	f.Ring = nr
	f.Epochs++

	var groups []*transferGroup
	groupIdx := make(map[[2]int]*transferGroup)
	moved, lost := 0, 0
	for i, key := range f.keys {
		oldSet := f.sets.sets[i*R : i*R+f.sets.m]
		if !join && !containsInt(oldSet, server) {
			continue
		}
		newSet := nr.ReplicaOwnersHash(f.keyHashes[i], R, f.ownB)
		for _, d := range newSet {
			if containsInt(oldSet, d) {
				continue
			}
			src := -1
			var val []byte
			for _, s := range oldSet {
				if s == d || !nr.HasMember(s) {
					continue
				}
				if v, ok := f.Servers[s].Get(key); ok {
					src, val = s, v
					break
				}
			}
			if src < 0 {
				lost++
				continue
			}
			gk := [2]int{src, d}
			g := groupIdx[gk]
			if g == nil {
				g = &transferGroup{src: src, dst: d}
				groupIdx[gk] = g
				groups = append(groups, g)
			}
			g.items = append(g.items, kvs.ReplicaItem{Key: key, Value: val})
			moved++
		}
		copy(f.sets.sets[i*R:(i+1)*R], newSet)
	}
	f.sets.ring, f.sets.m = nr, min(R, nr.Servers())
	f.KeysMoved += uint64(moved)
	f.KeysLost += uint64(lost)
	start := f.Sim.Now()
	epoch := nr.Epoch()
	if f.Probe != nil {
		f.Probe.EpochAdvanced(epoch, server, join, moved, lost, start)
	}
	if moved == 0 {
		if f.Probe != nil {
			f.Probe.RebalanceDone(epoch, 0, start, start)
		}
		return nil
	}
	outstanding := 0
	for _, g := range groups {
		for from := 0; from < len(g.items); from += rebalanceBatchItems {
			to := min(from+rebalanceBatchItems, len(g.items))
			items := g.items[from:to]
			bytes := 0
			for _, it := range items {
				bytes += len(it.Key) + len(it.Value) + replicaItemOverheadBytes
			}
			outstanding++
			src, dst := g.src, g.dst
			acked := false
			f.serverEPs[src].Send(f.serverEPs[dst], bytes, func() {
				f.Servers[dst].HandleReplicate(items, func(applied int) {
					f.serverEPs[dst].Send(f.serverEPs[src], replicaAckBytes, func() {
						if acked {
							return // duplicate delivery
						}
						acked = true
						outstanding--
						if outstanding == 0 && f.Probe != nil {
							f.Probe.RebalanceDone(epoch, moved, start, f.Sim.Now())
						}
					})
				})
			})
		}
	}
	return groups
}

// transferGroup is the rebalance traffic from one donor to one new owner,
// items in key load order.
type transferGroup struct {
	src, dst int
	items    []kvs.ReplicaItem
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// FleetConfig extends the memslap Config with fleet semantics. The zero
// extension (replication handled by the Fleet, everything else off) runs
// the closed-loop pipeline.
type FleetConfig struct {
	Config

	// ArrivalRate switches the load generator to open loop: Multi-Gets
	// arrive at this aggregate rate (requests/s of virtual time) regardless
	// of completions, exposing queueing delay instead of coordinated
	// omission. 0 keeps the closed loop, where each of Clients workers
	// issues its next request on completion.
	ArrivalRate float64
	// DeterministicArrivals uses fixed 1/rate inter-arrival gaps instead of
	// the default seeded Poisson (exponential) process.
	DeterministicArrivals bool

	// WriteFraction routes this fraction of open/closed-loop requests
	// through the quorum-write path (a single-key replicated set). 0 (the
	// default) draws nothing from the RNG, keeping the read-only request
	// stream bitwise identical to the legacy path.
	WriteFraction float64
	// ValueBytes sizes written values (default 32).
	ValueBytes int

	// Churn schedules ring membership churn from the fault plan's crash
	// windows: each participating server Leaves at its window start and
	// Joins (cold) at window end — rolling failures with rebalance storms.
	// Requires open-loop arrivals and a plan with crash windows.
	Churn bool
	// ChurnServers bounds how many servers participate in the rolling
	// failures (0 = min(2, servers-1)).
	ChurnServers int

	// FleetProbe, when non-nil, observes fleet events (obs layer).
	FleetProbe obs.FleetProbe
}

// FleetResults extends ClusterResults with fleet-scale accounting. The
// embedded ClusterResults fields are computed with the legacy path's exact
// float operation order, so a replication=1, zero-fault, closed-loop fleet
// matches RunCluster bitwise.
type FleetResults struct {
	ClusterResults

	Replication int
	P50Latency  float64
	P999Latency float64

	// Open-loop accounting. QueueDelay is end-to-end latency minus the
	// slowest sub-batch's service time — the time a request spent waiting
	// on NICs, worker queues, retries and backoffs.
	AvgQueueDelay float64
	P99QueueDelay float64
	MeasuredRate  float64 // measured arrival rate over the measured window

	// Replication/churn accounting.
	Epochs       uint64
	KeysMoved    uint64
	KeysLost     uint64
	Repairs      uint64
	Failovers    uint64
	Writes       uint64 // quorum writes committed in the measured window
	WritesFailed uint64

	// Overload-control accounting (all zero unless the plan arms qdepth=,
	// qdeadline=, budget= or hedge=). Server-side sheds are summed across
	// the fleet; like the fault counters they accumulate over warm-up and
	// measurement alike.
	ShedQueueFull  uint64 // batches rejected at admission (queue at qdepth)
	ShedDeadline   uint64 // queued batches shed at grant (waited > qdeadline)
	Hedges         uint64 // hedged duplicate reads issued
	HedgeWins      uint64 // hedges that resolved keys before the primary
	BudgetDenied   uint64 // retries forgone on an empty client budget
	QueueHighWater int    // max worker-queue depth observed on any server
}

// RunFleet drives the fleet: replicated reads with failover across replica
// ranks, read-repair on divergence, quorum writes, optional open-loop
// arrivals and fault-driven membership churn. See FleetConfig for the
// semantics of each knob.
func RunFleet(f *Fleet, cfg FleetConfig) (FleetResults, error) {
	servers := f.Servers
	if cfg.Clients <= 0 || cfg.BatchSize <= 0 || cfg.Requests <= 0 {
		return FleetResults{}, &ConfigError{Field: "clients/batch/requests", Reason: "must be positive"}
	}
	if len(f.keys) == 0 {
		return FleetResults{}, &ConfigError{Field: "keys", Reason: "LoadFleet must run before RunFleet"}
	}
	if cfg.ArrivalRate < 0 {
		return FleetResults{}, &ConfigError{Field: "arrival rate", Reason: "must be non-negative"}
	}
	if cfg.WriteFraction < 0 || cfg.WriteFraction >= 1 {
		return FleetResults{}, &ConfigError{Field: "write fraction", Reason: "must be in [0, 1)"}
	}
	if cfg.Churn {
		if cfg.ArrivalRate <= 0 {
			return FleetResults{}, &ConfigError{Field: "churn", Reason: "requires open-loop arrivals (ArrivalRate > 0)"}
		}
		if cfg.Faults == nil || cfg.Faults.Spec().CrashPeriod <= 0 {
			return FleetResults{}, &ConfigError{Field: "churn", Reason: "requires a fault plan with crash windows (the churn schedule)"}
		}
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = cfg.Requests / 5
	}
	theta := cfg.ZipfTheta
	if theta == 0 {
		theta = workload.DefaultZipfTheta
	}
	if cfg.RequestOverheadBytes == 0 {
		cfg.RequestOverheadBytes = 8
	}
	if cfg.ValueBytes <= 0 {
		cfg.ValueBytes = 32
	}
	f.Probe = cfg.FleetProbe

	sim, fabric, plan := f.Sim, f.Fabric, cfg.Faults
	for i, srv := range servers {
		f.serverEPs[i] = fabric.Endpoint(fmt.Sprintf("server-%d", i))
		srv.WarmCaches()
	}

	total := cfg.Warmup + cfg.Requests
	issued, completed := 0, 0
	var latencies, queueDelays []float64
	var hits, served, returned uint64
	var retries, timeouts, degraded, missing uint64
	var writesDone, writesFailed uint64
	var fanoutSum int
	var measStart, measEnd float64
	var firstArr, lastArr float64
	arrCount := 0

	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf, err := workload.NewZipf(len(f.keys), theta, rng)
	if err != nil {
		return FleetResults{}, err
	}

	R := f.Replication
	writeSeq := 0

	var issueClosed func(clientEP *netsim.Endpoint, budget *retryBudget)

	// startRead issues one replicated Multi-Get. Sub-batches go to each
	// key's primary replica first; on timeout the unresolved keys rotate to
	// their next replica rank (failover), bounded by the plan's retry
	// budget. Per-key resolution makes duplicate and stale deliveries
	// idempotent.
	startRead := func(clientEP *netsim.Endpoint, budget *retryBudget, seq int, closed bool) {
		sent := sim.Now()
		batch := make([][]byte, cfg.BatchSize)
		for i := range batch {
			batch[i] = f.keys[zipf.Next()]
		}
		pos0 := make([][]int, len(servers))
		fanout := 0
		for i, k := range batch {
			s := f.Ring.Owner(k)
			if len(pos0[s]) == 0 {
				fanout++
			}
			pos0[s] = append(pos0[s], i)
		}
		resolved := make([]bool, len(batch))
		remaining := len(batch)
		foundTotal, servedKeys, missingKeys := 0, 0, 0
		reqRetries, reqTimeouts := 0, 0
		serviceMax := 0.0

		finish := func() {
			completed++
			if missingKeys > 0 && cfg.FaultProbe != nil {
				cfg.FaultProbe.BatchDegraded(servedKeys, missingKeys, sim.Now())
			}
			if seq > cfg.Warmup {
				latencies = append(latencies, sim.Now()-sent)
				queueDelays = append(queueDelays, math.Max(0, sim.Now()-sent-serviceMax))
				hits += uint64(foundTotal)
				served += uint64(len(batch))
				returned += uint64(servedKeys)
				retries += uint64(reqRetries)
				timeouts += uint64(reqTimeouts)
				if missingKeys > 0 {
					degraded++
					missing += uint64(missingKeys)
				}
				fanoutSum += fanout
				measEnd = sim.Now()
			} else if seq == cfg.Warmup {
				measStart = sim.Now()
				for _, srv := range servers {
					srv.ResetStats()
				}
			}
			if closed {
				issueClosed(clientEP, budget)
			}
		}

		anyLive := func(pos []int) bool {
			for _, p := range pos {
				if !resolved[p] {
					return true
				}
			}
			return false
		}

		abandon := func(pos []int) {
			progressed := false
			for _, p := range pos {
				if resolved[p] {
					continue
				}
				resolved[p] = true
				remaining--
				missingKeys++
				progressed = true
			}
			if progressed && remaining == 0 {
				finish()
			}
		}

		resolveServed := func(target, rank int, pos []int, res kvs.MGetResult) {
			var repairPos []int
			progressed := false
			for j, p := range pos {
				if resolved[p] {
					continue
				}
				resolved[p] = true
				remaining--
				servedKeys++
				progressed = true
				if res.Values[j] != nil {
					foundTotal++
				} else if _, known := f.expected[string(batch[p])]; known {
					repairPos = append(repairPos, p)
				}
			}
			if t := res.Breakdown.Total(); t > serviceMax {
				serviceMax = t
			}
			if f.Probe != nil {
				f.Probe.ReplicaRead(rank)
			}
			if len(repairPos) > 0 {
				f.scheduleRepairs(target, batch, repairPos)
			}
			// A duplicate or post-abandon (stale) delivery resolves nothing
			// and must not re-enter finish.
			if progressed && remaining == 0 {
				finish()
			}
		}

		var sendGroup func(target, rank, attempt int, pos []int, hedged bool)
		sendGroup = func(target, rank, attempt int, pos []int, hedged bool) {
			sub := make([][]byte, len(pos))
			for j, p := range pos {
				sub[j] = batch[p]
			}
			reqBytes := requestBytes(sub, cfg.RequestOverheadBytes)
			// rotate advances this group to the next replica rank. It is
			// shared by the timeout and the rejected-response (server shed)
			// paths; the flag keeps whichever fires second from rotating the
			// same group twice. Every rotation must be covered by the
			// client's retry budget: an empty bucket abandons instead of
			// amplifying the overload that emptied it.
			rotated := false
			rotate := func() {
				rotated = true
				if attempt >= plan.MaxRetries() {
					abandon(pos)
					return
				}
				if !budget.spend() {
					f.BudgetDenied++
					if cfg.OverloadProbe != nil {
						cfg.OverloadProbe.BudgetDenied(sim.Now())
					}
					abandon(pos)
					return
				}
				next := attempt + 1
				nrank := rank + 1
				reqRetries++
				f.Failovers++
				if f.Probe != nil {
					f.Probe.Failover(nrank, sim.Now())
				}
				backoff := plan.BackoffFor(next)
				if cfg.FaultProbe != nil {
					cfg.FaultProbe.RetryScheduled(next, backoff, sim.Now())
				}
				sim.After(backoff, func() {
					// Regroup the still-unresolved keys by their
					// rank-nrank replica under the *current* ring, so
					// failover routes around membership changes too.
					perServer := make([][]int, len(servers))
					any := false
					for _, p := range pos {
						if resolved[p] {
							continue
						}
						owners := f.Ring.ReplicaOwners(batch[p], R, f.ownA)
						t := owners[nrank%len(owners)]
						perServer[t] = append(perServer[t], p)
						any = true
					}
					if !any {
						return
					}
					for s := 0; s < len(servers); s++ {
						if len(perServer[s]) > 0 {
							sendGroup(s, nrank, next, perServer[s], false)
						}
					}
				})
			}
			clientEP.Send(f.serverEPs[target], reqBytes, func() {
				servers[target].HandleMGet(sub, func(res kvs.MGetResult) {
					f.serverEPs[target].Send(clientEP, res.RespBytes, func() {
						if res.Rejected {
							// A shed is an explicit "try elsewhere": fail over
							// now instead of burning the rest of the timeout.
							// Hedge responses never rotate (the attempt they
							// hedge owns recovery), and a group that already
							// rotated or fully resolved ignores the shed.
							if hedged || rotated || !anyLive(pos) {
								return
							}
							if cfg.OverloadProbe != nil {
								cfg.OverloadProbe.RejectedObserved(rank, sim.Now())
							}
							rotate()
							return
						}
						if hedged && anyLive(pos) {
							// The hedge arrived while keys were still open —
							// it beat the attempt it was hedging.
							f.HedgeWins++
							if cfg.OverloadProbe != nil {
								cfg.OverloadProbe.HedgeWon(rank, sim.Now())
							}
						}
						resolveServed(target, rank, pos, res)
					})
				})
			})
			if plan == nil || hedged {
				// Hedges carry no timeout and never re-hedge: the hedged
				// attempt's own protocol owns recovery, so a lost hedge
				// costs one duplicate request and nothing else.
				return
			}
			if hd := plan.HedgeDelay(); hd > 0 && attempt == 0 {
				// Deterministic hedged read: after the hedge delay, keys
				// still unresolved get one duplicate read at the next
				// replica rank. First response wins through the same
				// per-key idempotent resolution failover uses; hedges spend
				// no retry budget and count toward no retry bound.
				sim.After(hd, func() {
					if rotated || !anyLive(pos) {
						return
					}
					hrank := rank + 1
					perServer := make([][]int, len(servers))
					any := false
					for _, p := range pos {
						if resolved[p] {
							continue
						}
						owners := f.Ring.ReplicaOwners(batch[p], R, f.ownA)
						t := owners[hrank%len(owners)]
						perServer[t] = append(perServer[t], p)
						any = true
					}
					if !any {
						return
					}
					f.Hedges++
					if cfg.OverloadProbe != nil {
						cfg.OverloadProbe.HedgeFired(hrank, sim.Now())
					}
					for s := 0; s < len(servers); s++ {
						if len(perServer[s]) > 0 {
							sendGroup(s, hrank, attempt, perServer[s], true)
						}
					}
				})
			}
			sim.After(plan.Timeout(), func() {
				if rotated || !anyLive(pos) {
					return
				}
				reqTimeouts++
				if cfg.FaultProbe != nil {
					cfg.FaultProbe.TimeoutFired(attempt, sim.Now())
				}
				rotate()
			})
		}

		// Iterate sub-batches in server order (not map order) so the issue
		// sequence — and with it every fault-RNG draw — is deterministic.
		for s := 0; s < len(servers); s++ {
			if len(pos0[s]) > 0 {
				sendGroup(s, 0, 0, pos0[s], false)
			}
		}
	}

	// startWrite issues one quorum write: the value goes to all R replicas
	// of a zipf-drawn key; the request completes at WriteQuorum acks (or
	// degrades on timeout under an armed plan).
	startWrite := func(clientEP *netsim.Endpoint, budget *retryBudget, seq int, closed bool) {
		sent := sim.Now()
		writeSeq++
		key := f.keys[zipf.Next()]
		value := make([]byte, cfg.ValueBytes)
		for i := range value {
			value[i] = byte('A' + (writeSeq+i)%26)
		}
		owners := f.Ring.ReplicaOwners(key, R, nil)
		w := f.WriteQuorum
		if w <= 0 {
			w = len(owners)/2 + 1
		}
		if w > len(owners) {
			w = len(owners)
		}
		acks := 0
		finished := false
		finishWrite := func(ok bool) {
			finished = true
			completed++
			if ok {
				f.expected[string(key)] = value
				if f.Probe != nil {
					f.Probe.QuorumWrite(acks, sim.Now())
				}
			}
			if seq > cfg.Warmup {
				latencies = append(latencies, sim.Now()-sent)
				fanoutSum += len(owners)
				if ok {
					writesDone++
				} else {
					writesFailed++
					degraded++
					timeouts++
				}
				measEnd = sim.Now()
			} else if seq == cfg.Warmup {
				measStart = sim.Now()
				for _, srv := range servers {
					srv.ResetStats()
				}
			}
			if closed {
				issueClosed(clientEP, budget)
			}
		}
		bytes := len(key) + len(value) + replicaItemOverheadBytes
		for _, s := range owners {
			s := s
			acked := false
			clientEP.Send(f.serverEPs[s], bytes, func() {
				servers[s].HandleReplicate([]kvs.ReplicaItem{{Key: key, Value: value}}, func(applied int) {
					f.serverEPs[s].Send(clientEP, replicaAckBytes, func() {
						if acked {
							return // duplicate delivery
						}
						acked = true
						acks++
						if !finished && acks >= w {
							finishWrite(true)
						}
					})
				})
			})
		}
		if plan != nil {
			sim.After(plan.Timeout()*float64(plan.MaxRetries()+1), func() {
				if !finished {
					if cfg.FaultProbe != nil {
						cfg.FaultProbe.TimeoutFired(0, sim.Now())
					}
					finishWrite(false)
				}
			})
		}
	}

	issue := func(clientEP *netsim.Endpoint, budget *retryBudget, seq int, closed bool) {
		if cfg.WriteFraction > 0 && rng.Float64() < cfg.WriteFraction {
			startWrite(clientEP, budget, seq, closed)
		} else {
			startRead(clientEP, budget, seq, closed)
		}
	}
	issueClosed = func(clientEP *netsim.Endpoint, budget *retryBudget) {
		if issued >= total {
			return
		}
		issued++
		issue(clientEP, budget, issued, true)
	}

	for _, srv := range servers {
		schedulePressure(sim, srv, cfg.FaultProbe, func() bool { return completed >= total })
	}

	if cfg.ArrivalRate > 0 {
		arrRng := rand.New(rand.NewSource(cfg.Seed + arrivalSeedOffset))
		clientEPs := make([]*netsim.Endpoint, cfg.Clients)
		clientBudgets := make([]*retryBudget, cfg.Clients)
		for c := range clientEPs {
			clientEPs[c] = fabric.Endpoint(fmt.Sprintf("client-%d", c))
			clientBudgets[c] = newRetryBudget(plan.RetryBudget())
		}
		draw := func() float64 {
			if cfg.DeterministicArrivals {
				return 1 / cfg.ArrivalRate
			}
			return arrRng.ExpFloat64() / cfg.ArrivalRate
		}
		var arrive func(at float64)
		arrive = func(at float64) {
			if issued >= total {
				return
			}
			issued++
			seq := issued
			if seq == cfg.Warmup+1 {
				firstArr = at
			}
			if seq > cfg.Warmup {
				lastArr = at
				arrCount++
			}
			issue(clientEPs[(seq-1)%cfg.Clients], clientBudgets[(seq-1)%cfg.Clients], seq, false)
			next := at + draw()
			sim.At(next, func() { arrive(next) })
		}
		first := draw()
		sim.At(first, func() { arrive(first) })
	} else {
		for c := 0; c < cfg.Clients; c++ {
			// Each client thread owns its retry budget, as each would in a
			// real client process.
			issueClosed(fabric.Endpoint(fmt.Sprintf("client-%d", c)), newRetryBudget(plan.RetryBudget()))
		}
	}

	maxEpochs := 0
	if cfg.Churn {
		spec := plan.Spec()
		churnN := cfg.ChurnServers
		if churnN <= 0 {
			churnN = min(2, f.Ring.Servers()-1)
		}
		if churnN > f.Ring.Servers()-1 {
			churnN = f.Ring.Servers() - 1
		}
		horizon := float64(total)/cfg.ArrivalRate*4 + spec.CrashPeriod
		maxEpochs = (int(horizon/spec.CrashPeriod) + 2) * churnN * 2
		stop := func() bool { return completed >= total }
		for i := 0; i < churnN; i++ {
			// The schedule mirrors server i's own crash windows (same
			// golden-ratio stagger the per-server plans use), so ring
			// epochs line up with the request drops CrashedAt produces.
			pi := plan.ForServer(i)
			var window func(k int)
			window = func(k int) {
				start, dur, ok := pi.CrashWindow(k)
				if !ok {
					return
				}
				if start <= sim.Now() {
					window(k + 1)
					return
				}
				i := i
				sim.At(start, func() {
					if stop() {
						return
					}
					if f.Ring.Servers() > 1 && f.Ring.HasMember(i) {
						if err := f.Leave(i); err != nil {
							return
						}
					}
					sim.At(start+dur, func() {
						if !f.Ring.HasMember(i) {
							_ = f.Join(i)
						}
						if stop() {
							return
						}
						window(k + 1)
					})
				})
			}
			window(1)
		}
	}

	budget := uint64(total)*eventBudgetPerRequest + eventBudgetSlack
	budget += uint64(total) * uint64(cfg.BatchSize) * 2 // failover + repair ceiling
	budget += uint64(maxEpochs+1) * uint64(len(f.keys)+1024) * eventBudgetPerMovedKey
	sim.SetEventBudget(budget)
	sim.Run()
	if sim.BudgetExhausted() {
		return FleetResults{}, fmt.Errorf("memslap: watchdog: event budget %d exhausted after %d of %d requests — runaway fault/retry/rebalance loop", budget, completed, total)
	}
	if completed < total {
		return FleetResults{}, fmt.Errorf("memslap: deadlock — completed %d of %d requests", completed, total)
	}

	elapsed := measEnd - measStart
	if elapsed <= 0 {
		elapsed = math.SmallestNonzeroFloat64
	}
	sort.Float64s(latencies)
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	n := len(latencies)
	out := FleetResults{
		ClusterResults: ClusterResults{
			Servers:        len(servers),
			BatchSize:      cfg.BatchSize,
			Requests:       n,
			ThroughputKeys: float64(served) / elapsed,
			AvgLatency:     sum / float64(n),
			P99Latency:     latencies[min(n-1, n*99/100)],
			HitRate:        float64(hits) / float64(served),
			AvgFanout:      float64(fanoutSum) / float64(n),
			Retries:        retries,
			Timeouts:       timeouts,
			Degraded:       degraded,
			KeysMissing:    missing,
			GoodputKeys:    float64(returned) / elapsed,
		},
		Replication:  R,
		P50Latency:   latencies[min(n-1, n*50/100)],
		P999Latency:  latencies[min(n-1, n*999/1000)],
		Epochs:       f.Epochs,
		KeysMoved:    f.KeysMoved,
		KeysLost:     f.KeysLost,
		Repairs:      f.Repairs,
		Failovers:    f.Failovers,
		Writes:       writesDone,
		WritesFailed: writesFailed,
		Hedges:       f.Hedges,
		HedgeWins:    f.HedgeWins,
		BudgetDenied: f.BudgetDenied,
	}
	for _, srv := range servers {
		out.ShedQueueFull += srv.ShedQueueFull
		out.ShedDeadline += srv.ShedDeadline
		if hw := srv.Workers.QueueHighWater(); hw > out.QueueHighWater {
			out.QueueHighWater = hw
		}
	}
	if cfg.OverloadProbe != nil {
		// Report per-server high-water marks in server order so the gauge's
		// Max fold — and the rendered metric — is deterministic.
		for _, srv := range servers {
			cfg.OverloadProbe.QueueHighWater(srv.Workers.QueueHighWater())
		}
	}
	if len(queueDelays) > 0 {
		sort.Float64s(queueDelays)
		var qsum float64
		for _, q := range queueDelays {
			qsum += q
		}
		qn := len(queueDelays)
		out.AvgQueueDelay = qsum / float64(qn)
		out.P99QueueDelay = queueDelays[min(qn-1, qn*99/100)]
	}
	if arrCount > 1 && lastArr > firstArr {
		out.MeasuredRate = float64(arrCount-1) / (lastArr - firstArr)
	}
	return out, nil
}

// scheduleRepairs fires read-repair for divergent keys: a replica returned
// NOT_FOUND for keys the fleet knows are stored. The client streams each
// key from a surviving replica (the donor) to the divergent server, applied
// through the charged HandleReplicate path. In-flight repairs are deduped
// per (server, key); a key with no live donor cannot be repaired (a true
// loss, visible as a lasting hit-rate drop).
func (f *Fleet) scheduleRepairs(target int, batch [][]byte, repairPos []int) {
	count := 0
	for _, p := range repairPos {
		key := batch[p]
		owners := f.Ring.ReplicaOwners(key, f.Replication, f.ownA)
		if !containsInt(owners, target) {
			continue // ownership moved on; rebalance covers it
		}
		donor := -1
		for _, d := range owners {
			if d == target {
				continue
			}
			if _, ok := f.Servers[d].Get(key); ok {
				donor = d
				break
			}
		}
		if donor < 0 {
			continue
		}
		rk := repairKey{server: target, key: string(key)}
		if f.repairing[rk] {
			continue
		}
		f.repairing[rk] = true
		val, _ := f.Servers[donor].Get(key)
		item := kvs.ReplicaItem{Key: key, Value: val}
		bytes := len(key) + len(val) + replicaItemOverheadBytes
		acked := false
		f.serverEPs[donor].Send(f.serverEPs[target], bytes, func() {
			f.Servers[target].HandleReplicate([]kvs.ReplicaItem{item}, func(applied int) {
				f.serverEPs[target].Send(f.serverEPs[donor], replicaAckBytes, func() {
					if acked {
						return
					}
					acked = true
					f.Repairs++
					delete(f.repairing, rk)
				})
			})
		})
		count++
	}
	if count > 0 && f.Probe != nil {
		f.Probe.ReadRepair(count, f.Sim.Now())
	}
}
