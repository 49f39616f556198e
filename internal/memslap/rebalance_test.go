package memslap

import (
	"fmt"
	"strings"
	"testing"

	"simdhtbench/internal/kvs"
)

// bruteForceTransfers re-derives a rebalance's transfer list from scratch:
// both replica sets of every loaded key via Ring.ReplicaOwners, and for
// each new owner the first surviving old owner that holds the key as
// donor. Groups appear in first-use order, items in key load order.
func bruteForceTransfers(f *Fleet, old, nr *kvs.Ring) (groups []string, moved, lost int) {
	type group struct {
		src, dst int
		keys     []string
	}
	var order []*group
	byPair := make(map[[2]int]*group)
	for _, key := range f.keys {
		oldSet := old.ReplicaOwners(key, f.Replication, nil)
		newSet := nr.ReplicaOwners(key, f.Replication, nil)
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
			g := byPair[[2]int{src, d}]
			if g == nil {
				g = &group{src: src, dst: d}
				byPair[[2]int{src, d}] = g
				order = append(order, g)
			}
			g.keys = append(g.keys, fmt.Sprintf("%s=%s", key, val))
			moved++
		}
	}
	for _, g := range order {
		groups = append(groups, fmt.Sprintf("%d->%d [%s]", g.src, g.dst, strings.Join(g.keys, " ")))
	}
	return groups, moved, lost
}

func describeGroups(groups []*transferGroup) []string {
	var out []string
	for _, g := range groups {
		keys := make([]string, len(g.items))
		for i, it := range g.items {
			keys[i] = fmt.Sprintf("%s=%s", it.Key, it.Value)
		}
		out = append(out, fmt.Sprintf("%d->%d [%s]", g.src, g.dst, strings.Join(keys, " ")))
	}
	return out
}

// TestAdvanceRingTransferListMatchesBruteForce pins the rebalance planner
// — cached replica sets, Leave rescanning only the sets that held the
// departing server, one donor read per moved key — against a brute-force
// re-derivation on both rings, step by step through Leaves and Joins,
// a ring replaced from outside the fleet (which must invalidate the cache)
// and membership dropping below the replication factor and back.
func TestAdvanceRingTransferListMatchesBruteForce(t *testing.T) {
	sim, f := buildFleet(t, 5, 600, 3)
	type step struct {
		name string
		join bool
		id   int
		ring func() *kvs.Ring // replaces f.Ring before the step, when set
	}
	steps := []step{
		{name: "leave 1", id: 1},
		{name: "join 1", join: true, id: 1},
		{name: "leave 4", id: 4},
		// Server 3 dropped from outside the fleet, with no rebalance: the
		// cached sets still name it and must be recomputed.
		{name: "external ring, then leave 2 (below R)", id: 2, ring: func() *kvs.Ring {
			r, err := kvs.NewRingMembers([]int{0, 1, 2}, 0)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{name: "join 4", join: true, id: 4},
		{name: "join 3 (above R)", join: true, id: 3},
		{name: "leave 0", id: 0},
	}
	movedTotal := 0
	for _, st := range steps {
		if st.ring != nil {
			f.Ring = st.ring()
		}
		var nr *kvs.Ring
		var err error
		if st.join {
			nr, err = f.Ring.Join(st.id)
		} else {
			nr, err = f.Ring.Leave(st.id)
		}
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if !st.join {
			f.Servers[st.id].Wipe() // as Fleet.Leave does before rebalancing
		}
		want, wantMoved, wantLost := bruteForceTransfers(f, f.Ring, nr)
		moved0, lost0 := f.KeysMoved, f.KeysLost
		got := describeGroups(f.advanceRing(nr, st.id, st.join))
		if f.Ring != nr {
			t.Fatalf("%s: advanceRing did not install the new ring", st.name)
		}
		if int(f.KeysMoved-moved0) != wantMoved || int(f.KeysLost-lost0) != wantLost {
			t.Fatalf("%s: moved/lost %d/%d, brute force %d/%d",
				st.name, f.KeysMoved-moved0, f.KeysLost-lost0, wantMoved, wantLost)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d transfer groups, brute force %d", st.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: group %d:\n got  %.200s\n want %.200s", st.name, i, got[i], want[i])
			}
		}
		movedTotal += wantMoved
		sim.Run() // land the transfers so later donors see them
	}
	if movedTotal == 0 {
		t.Fatal("no step moved a key: the scenario exercises nothing")
	}
}
