package kvs

// Fleet-scale replication support: the server-side apply path for replica
// writes, rebalance transfers and read-repair, plus the wipe that models a
// crashed server restarting cold. The apply path is charged through a
// worker engine like HandleMGet — rebalance storms compete with foreground
// traffic for workers and cycles instead of teleporting data.

// Per-item replica-apply cost constants (cycles). Parsing covers the
// set-command demarshalling; the store copy scales with value bytes; the
// index insert covers hashing plus the insert/kick work of the table (the
// functional insert below is uncharged, so the whole operation is billed
// here as a named, reviewable cost).
const (
	replApplyFixedCycles   = 90.0 // set parse + dispatch + slab bookkeeping
	replApplyCyclesPerByte = 1.0  // key parse + value copy into the slab
	replIndexInsertCycles  = 250.0
	replIndexReplaceCycles = 120.0 // delete of the stale ref before reinsert
	replAckRespCycles      = 40.0
)

// ReplicaItem is one key/value pair of a replica write, rebalance transfer
// or read-repair message.
type ReplicaItem struct {
	Key   []byte
	Value []byte
}

// HandleReplicate schedules a batch of replica writes: it waits for a free
// worker, charges the apply cost on that worker's core, applies the items
// functionally (replacing stale versions), and delivers the applied count
// after the simulated service time.
//
// Like HandleMGet, a batch arriving inside a crash window is silently
// dropped — the rebalance or quorum-write source times out and recovers (or
// doesn't; replication is best-effort under faults, and read-repair heals
// stragglers).
func (s *Server) HandleReplicate(items []ReplicaItem, done func(applied int)) {
	if s.Faults.CrashedAt(s.Sim.Now()) {
		s.CrashDrops++
		if s.FaultProbe != nil {
			s.FaultProbe.CrashDropped(s.Sim.Now())
		}
		return
	}
	s.Workers.Acquire(func() {
		wi := s.freeEng[len(s.freeEng)-1]
		s.freeEng = s.freeEng[:len(s.freeEng)-1]
		applied, service := s.processReplicate(wi, items)
		if factor := s.Faults.SlowdownAt(s.Sim.Now()); factor > 1 {
			service *= factor
			s.Slowdowns++
			if s.FaultProbe != nil {
				s.FaultProbe.SlowdownApplied(factor, s.Sim.Now())
			}
		}
		s.Sim.After(service, func() {
			s.freeEng = append(s.freeEng, wi)
			s.Workers.Release()
			done(applied)
		})
	})
}

// processReplicate charges and applies a replica batch on worker wi,
// returning the applied count and the service time in seconds.
func (s *Server) processReplicate(wi int, items []ReplicaItem) (int, float64) {
	e := s.workerEngine(wi)
	freq := s.Arch.Frequency(s.Index.Width()) * 1e9
	start := e.Cycles()
	applied := 0
	for _, it := range items {
		e.ChargeCycles(replApplyFixedCycles + replApplyCyclesPerByte*float64(len(it.Key)+len(it.Value)))
		replaced, err := s.Replace(it.Key, it.Value)
		if err != nil {
			continue
		}
		if replaced {
			e.ChargeCycles(replIndexReplaceCycles)
		}
		e.ChargeCycles(replIndexInsertCycles)
		applied++
	}
	e.ChargeCycles(replAckRespCycles)
	cycles := e.Cycles() - start
	s.ReplicaBatches++
	s.ReplicaItems += uint64(applied)
	return applied, cycles / freq
}

// Replace stores (key, value), first deleting any existing version: the
// index rejects duplicate 32-bit key hashes, so an overwrite must delete
// the stale reference before reinserting. Returns whether a stale version
// was replaced. The lookup is functional (uncharged); charged callers bill
// the equivalent work via the repl* cost constants.
func (s *Server) Replace(key, value []byte) (bool, error) {
	replaced := false
	e := s.workerEngine(0)
	e.SetCharging(false)
	keys := [][]byte{key}
	hashes := []uint32{Hash32(key)}
	refs := []uint32{NoRef}
	s.Index.LookupBatch(e, s.Store, keys, hashes, refs)
	e.SetCharging(true)
	if refs[0] != NoRef {
		s.Index.Delete(s.Store, hashes[0], key)
		if err := s.Store.Delete(refs[0]); err != nil {
			return false, err
		}
		replaced = true
	}
	_, err := s.Set(key, value)
	return replaced, err
}

// Wipe empties the server's store and index — the cold restart of a
// crashed/departed server: a rejoining Memcached process holds nothing
// until rebalance transfers repopulate it. Returns the number of items
// dropped. Cache state is left as-is; the warm set repopulates through
// traffic.
func (s *Server) Wipe() int {
	dropped := 0
	for {
		ref := s.Store.LRUTail()
		if ref == NoRef {
			break
		}
		it := s.Store.Get(ref)
		s.Index.Delete(s.Store, Hash32(it.Key), it.Key)
		if err := s.Store.Delete(ref); err != nil {
			break
		}
		dropped++
	}
	return dropped
}
