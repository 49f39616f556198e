package des

import (
	"errors"
	"strings"
	"testing"

	"simdhtbench/internal/obs"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(3.0, func() { order = append(order, 3) })
	s.At(1.0, func() { order = append(order, 1) })
	s.At(2.0, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 3.0 {
		t.Errorf("final time = %v", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1.0, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var at float64
	s.At(5.0, func() {
		s.After(2.5, func() { at = s.Now() })
	})
	s.Run()
	if at != 7.5 {
		t.Errorf("After fired at %v, want 7.5", at)
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	s := New()
	depth := 0
	var recurse func()
	recurse = func() {
		if depth++; depth < 100 {
			s.After(1, recurse)
		}
	}
	s.After(0, recurse)
	s.Run()
	if depth != 100 {
		t.Errorf("depth = %d", depth)
	}
	if s.Now() != 99 {
		t.Errorf("final time = %v", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	fired := 0
	s.At(1, func() { fired++ })
	s.At(2, func() { fired++ })
	s.At(3, func() { fired++ })
	s.RunUntil(2)
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	if s.Now() != 2 {
		t.Errorf("Now = %v, want 2", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d", s.Pending())
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := New()
	s.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past should panic")
			}
		}()
		s.At(1, func() {})
	})
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	s.After(-1, func() {})
}

func TestResourceImmediateGrant(t *testing.T) {
	s := New()
	r := NewResource(s, 2)
	granted := 0
	r.Acquire(func() { granted++ })
	r.Acquire(func() { granted++ })
	s.Run()
	if granted != 2 {
		t.Errorf("granted = %d", granted)
	}
	if r.InUse() != 2 {
		t.Errorf("in use = %d", r.InUse())
	}
}

func TestResourceQueuesBeyondCapacity(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	var events []string
	r.Acquire(func() {
		events = append(events, "first")
		s.After(10, func() { r.Release() })
	})
	r.Acquire(func() {
		events = append(events, "second")
		r.Release()
	})
	s.Run()
	if len(events) != 2 || events[0] != "first" || events[1] != "second" {
		t.Errorf("events = %v", events)
	}
	if r.EverQueued() != 1 {
		t.Errorf("queued = %d", r.EverQueued())
	}
	if r.InUse() != 0 {
		t.Errorf("in use after drain = %d", r.InUse())
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	var order []int
	r.Acquire(func() { s.After(1, r.Release) })
	for i := 0; i < 5; i++ {
		i := i
		r.Acquire(func() {
			order = append(order, i)
			s.After(1, r.Release)
		})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("queue not FIFO: %v", order)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	r.Acquire(func() {
		s.After(5, r.Release)
	})
	s.At(10, func() {}) // extend the horizon to 10s
	s.Run()
	if u := r.Utilization(); u < 0.49 || u > 0.51 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	defer func() {
		if recover() == nil {
			t.Error("Release without Acquire should panic")
		}
	}()
	r.Release()
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-capacity resource should panic")
		}
	}()
	NewResource(New(), 0)
}

func TestResourceOnWaitReportsQueueDelay(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	var waits []float64
	r.OnWait = func(sec float64) { waits = append(waits, sec) }
	// Holder takes the unit for 5s; a second request arrives at t=2 and is
	// granted at t=5 — a 3s queue wait.
	r.Acquire(func() {
		s.After(5, r.Release)
	})
	s.At(2, func() {
		r.Acquire(func() { r.Release() })
	})
	s.Run()
	if len(waits) != 1 {
		t.Fatalf("OnWait fired %d times, want 1", len(waits))
	}
	if waits[0] != 3 {
		t.Errorf("queue wait = %v, want 3", waits[0])
	}
}

func TestOfferUnboundedNeverRejects(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	granted := 0
	for i := 0; i < 10; i++ {
		if err := r.Offer(func() {
			granted++
			s.After(1, r.Release)
		}); err != nil {
			t.Fatalf("unbounded Offer rejected: %v", err)
		}
	}
	s.Run()
	if granted != 10 {
		t.Errorf("granted = %d, want 10", granted)
	}
	if r.Rejected() != 0 {
		t.Errorf("rejected = %d, want 0", r.Rejected())
	}
}

func TestOfferRejectsAtMaxQueue(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	r.SetMaxQueue(2)
	granted := 0
	take := func() {
		granted++
		s.After(1, r.Release)
	}
	// One holder + two queued fill the bound; the 4th and 5th are shed.
	var errs []error
	for i := 0; i < 5; i++ {
		errs = append(errs, r.Offer(take))
	}
	for i, err := range errs[:3] {
		if err != nil {
			t.Fatalf("Offer %d rejected below bound: %v", i, err)
		}
	}
	for i, err := range errs[3:] {
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("Offer %d = %v, want ErrQueueFull", 3+i, err)
		}
	}
	s.Run()
	if granted != 3 {
		t.Errorf("granted = %d, want 3", granted)
	}
	if r.Rejected() != 2 {
		t.Errorf("Rejected = %d, want 2", r.Rejected())
	}
	if r.QueueHighWater() != 2 {
		t.Errorf("QueueHighWater = %d, want 2", r.QueueHighWater())
	}
}

func TestOfferAdmitsAgainAfterDrain(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	r.SetMaxQueue(1)
	served := 0
	take := func() {
		served++
		s.After(1, r.Release)
	}
	if err := r.Offer(take); err != nil { // holder
		t.Fatal(err)
	}
	if err := r.Offer(take); err != nil { // queued (at bound)
		t.Fatal(err)
	}
	if err := r.Offer(take); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Offer at full queue = %v, want ErrQueueFull", err)
	}
	// After the queue drains, admission opens up again.
	s.At(5, func() {
		if err := r.Offer(take); err != nil {
			t.Errorf("Offer after drain rejected: %v", err)
		}
	})
	s.Run()
	if served != 3 {
		t.Errorf("served = %d, want 3", served)
	}
}

func TestSetMaxQueueZeroRestoresUnbounded(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	r.SetMaxQueue(1)
	r.SetMaxQueue(0)
	if r.MaxQueue() != 0 {
		t.Fatalf("MaxQueue = %d, want 0", r.MaxQueue())
	}
	for i := 0; i < 4; i++ {
		if err := r.Offer(func() { s.After(1, r.Release) }); err != nil {
			t.Fatalf("Offer with bound cleared rejected: %v", err)
		}
	}
	s.Run()
	if r.QueueHighWater() != 3 {
		t.Errorf("QueueHighWater = %d, want 3", r.QueueHighWater())
	}
}

func TestHeartbeatTicksPerEvent(t *testing.T) {
	s := New()
	var b strings.Builder
	s.Heartbeat = obs.NewHeartbeat(2, &b)
	for i := 0; i < 5; i++ {
		s.After(float64(i), func() {})
	}
	s.Run()
	if got := s.Heartbeat.Ticks(); got != 5 {
		t.Errorf("heartbeat ticks = %d, want 5 (one per dispatched event)", got)
	}
	if !strings.Contains(b.String(), "heartbeat:") {
		t.Errorf("no heartbeat output:\n%s", b.String())
	}
}

// TestEventHeapFIFOTieBreak pins the heap's tie-break invariant: events
// scheduled with equal timestamps dispatch in insertion order, at any heap
// size. The
// schedule interleaves a handful of repeated timestamps in a deliberately
// non-sorted pattern so sift-up and sift-down both get exercised at every
// size.
func TestEventHeapFIFOTieBreak(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 64, 257, 1024} {
		sim := New()
		type tag struct {
			at  float64
			idx int
		}
		var got []tag
		next := make(map[float64]int) // per-timestamp insertion counter
		for i := 0; i < n; i++ {
			// Five timestamps cycled out of order: ties pile up fast and
			// arrive interleaved with earlier and later times.
			at := float64([]int{3, 1, 4, 1, 5}[i%5]) * 1e-6
			idx := next[at]
			next[at] = idx + 1
			sim.At(at, func() { got = append(got, tag{at: at, idx: idx}) })
		}
		sim.Run()
		if len(got) != n {
			t.Fatalf("n=%d: dispatched %d events", n, len(got))
		}
		lastAt := -1.0
		lastIdx := make(map[float64]int)
		for i, g := range got {
			if g.at < lastAt {
				t.Fatalf("n=%d: event %d at %g dispatched after %g", n, i, g.at, lastAt)
			}
			lastAt = g.at
			if want, ok := lastIdx[g.at]; ok && g.idx != want {
				t.Fatalf("n=%d: timestamp %g dispatched insertion %d, want %d (FIFO)", n, g.at, g.idx, want)
			}
			lastIdx[g.at] = g.idx + 1
		}
	}
}

// TestRunUntilBudgetExhausted is the regression for the RunUntil +
// SetEventBudget interaction: with the budget exhausted mid-way, RunUntil's
// head event can no longer be popped, and the loop used to spin forever on
// it. It must stop, report exhaustion, and still advance the clock to t so
// callers observe a consistent horizon.
func TestRunUntilBudgetExhausted(t *testing.T) {
	sim := New()
	sim.SetEventBudget(10)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		sim.After(1e-6, tick)
	}
	sim.After(1e-6, tick)
	sim.RunUntil(1.0) // pre-fix: infinite loop
	if fired != 10 {
		t.Errorf("dispatched %d events, want the budget of 10", fired)
	}
	if !sim.BudgetExhausted() {
		t.Error("BudgetExhausted must report true")
	}
	if sim.Now() != 1.0 {
		t.Errorf("Now() = %g, want the horizon 1.0", sim.Now())
	}
}
