// Package des is a small discrete-event simulator with a virtual clock.
//
// The key-value-store validation (Section VI) measures end-to-end Multi-Get
// latency across a client node, an InfiniBand-EDR-class fabric, and a
// multi-worker server. Those experiments need queueing behaviour — workers
// busy, NICs serializing, clients in closed loops — under a deterministic
// virtual clock, which is exactly what this package provides: an event heap
// (Sim), FIFO resources with capacity (Resource), and nothing else.
//
// All times are float64 seconds of virtual time.
package des

import (
	"errors"
	"fmt"

	"simdhtbench/internal/obs"
)

// ErrQueueFull is the typed rejection returned by Resource.Offer when the
// resource is saturated and its wait queue already holds MaxQueue requests.
// It is the admission-control signal: callers turn it into a cheap reject
// response instead of queueing work that would be served too late to matter.
var ErrQueueFull = errors.New("des: resource queue full")

// Sim is the event scheduler. The zero value is not usable; call New.
type Sim struct {
	now    float64
	seq    uint64
	events eventHeap

	// Event-budget watchdog (SetEventBudget): Step refuses to dispatch
	// past the budget, bounding runaway event loops (e.g. a retry storm
	// under fault injection) deterministically.
	dispatched uint64
	budget     uint64

	// Probe, when non-nil, observes each dispatched event (obs layer).
	Probe obs.SimProbe

	// Heartbeat, when non-nil, ticks once per dispatched event — stderr-only
	// liveness output for long runs, never part of deterministic artifacts.
	Heartbeat *obs.Heartbeat
}

// New returns an empty simulation at time 0.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn to run at absolute virtual time t (>= Now).
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling into the past (%g < %g)", t, s.now))
	}
	s.events.push(event{at: t, seq: s.seq, fn: fn})
	s.seq++
}

// After schedules fn to run delay seconds from now.
func (s *Sim) After(delay float64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %g", delay))
	}
	s.At(s.now+delay, fn)
}

// SetEventBudget arms the watchdog: once n events have been dispatched,
// Step stops (and Run returns) instead of dispatching more, so a runaway
// event loop ends in a detectable state (BudgetExhausted) rather than a
// hang. The cutoff depends only on the event count, so it is as
// deterministic as the simulation itself. n == 0 disables the watchdog.
func (s *Sim) SetEventBudget(n uint64) { s.budget = n }

// Dispatched returns the number of events dispatched so far.
func (s *Sim) Dispatched() uint64 { return s.dispatched }

// BudgetExhausted reports whether the watchdog stopped the simulation:
// the budget was hit with events still pending.
func (s *Sim) BudgetExhausted() bool {
	return s.budget > 0 && s.dispatched >= s.budget && len(s.events) > 0
}

// Step runs the next event; it reports whether one existed (and, with an
// event budget armed, whether the budget still allowed it).
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	if s.budget > 0 && s.dispatched >= s.budget {
		return false
	}
	ev := s.events.pop()
	s.now = ev.at
	s.dispatched++
	if s.Probe != nil {
		s.Probe.EventRun(ev.at)
	}
	s.Heartbeat.Tick(ev.at)
	ev.fn()
	return true
}

// Run drains the event queue.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil processes events with timestamps <= t, then advances the clock
// to t. If the event budget runs out mid-way it stops immediately (Step
// refuses to dispatch) instead of spinning on the unpoppable head event;
// BudgetExhausted reports the cutoff and the clock is still advanced to t
// so callers observe a consistent horizon.
func (s *Sim) RunUntil(t float64) {
	for len(s.events) > 0 && s.events[0].at <= t {
		if !s.Step() {
			break
		}
	}
	if t > s.now {
		s.now = t
	}
}

// Pending returns the number of scheduled events.
func (s *Sim) Pending() int { return len(s.events) }

type event struct {
	at  float64
	seq uint64 // FIFO tie-break for simultaneous events
	fn  func()
}

// eventHeap is a hand-rolled binary min-heap of event values ordered by
// (at, seq). Scheduling an event appends into the slice's spare capacity —
// no per-event box, no interface conversion — so the steady-state event loop
// allocates nothing once the heap has reached its high-water mark (pinned by
// the netsim Send alloc test). Because (at, seq) is a unique total order,
// pop order — and therefore every simulation outcome — is identical to the
// previous container/heap formulation.
//
// Invariant (FIFO tie-break): events scheduled with equal timestamps pop in
// insertion order, at any heap size, because seq increases monotonically per
// Sim and (at, seq) ordering is total. Pinned by TestEventHeapFIFOTieBreak.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends ev and sifts it up to its heap position.
func (h *eventHeap) push(ev event) {
	//lint:ignore alloclint the heap's backing array grows to the high-water event count and is reused for the rest of the run
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the minimum event, releasing its closure reference
// from the backing array.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the fn reference so the closure can be collected
	q = q[:n]
	*h = q
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return top
}

// Resource is a FIFO-queued resource with fixed capacity (e.g. a pool of
// server worker threads). Acquire either grants immediately or queues; the
// holder must call Release exactly once.
type Resource struct {
	sim   *Sim
	cap   int
	inUse int
	queue []waiter

	// OnWait, when non-nil, is called with the queue-wait duration (virtual
	// seconds) each time a queued request is finally granted — the hook the
	// cycle accounting uses to attribute server queueing delay.
	OnWait func(seconds float64)

	// Admission control (SetMaxQueue): Offer rejects once the wait queue
	// holds maxQueue requests. 0 means unbounded — the default, which keeps
	// Acquire-only users (every pre-overload experiment) byte-identical.
	maxQueue int

	// Stats.
	grants    uint64
	queuedCum uint64
	rejected  uint64
	queueHW   int
	busyTime  float64
	lastTick  float64
}

// waiter is a queued Acquire plus the virtual time it started waiting.
type waiter struct {
	fn func()
	at float64
}

// NewResource creates a resource with the given capacity on sim.
func NewResource(sim *Sim, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("des: resource capacity %d", capacity))
	}
	return &Resource{sim: sim, cap: capacity}
}

// Acquire requests a unit; fn runs (via the event queue) once granted.
func (r *Resource) Acquire(fn func()) {
	if r.inUse < r.cap {
		r.accounting()
		r.inUse++
		r.grants++
		r.sim.After(0, fn)
		return
	}
	r.queuedCum++
	r.queue = append(r.queue, waiter{fn: fn, at: r.sim.Now()})
	if len(r.queue) > r.queueHW {
		r.queueHW = len(r.queue)
	}
}

// SetMaxQueue bounds the wait queue at n requests for Offer; n <= 0 restores
// the unbounded default. Acquire is never bounded — only Offer rejects — so
// arming a bound cannot change the behaviour of Acquire-only callers.
func (r *Resource) SetMaxQueue(n int) {
	if n < 0 {
		n = 0
	}
	r.maxQueue = n
}

// MaxQueue returns the configured admission bound (0 = unbounded).
func (r *Resource) MaxQueue() int { return r.maxQueue }

// Offer is Acquire with admission control: if the resource is saturated and
// the wait queue is at MaxQueue, it returns ErrQueueFull without scheduling
// anything; otherwise it behaves exactly like Acquire and returns nil. With
// no bound configured Offer never rejects.
func (r *Resource) Offer(fn func()) error {
	if r.maxQueue > 0 && r.inUse >= r.cap && len(r.queue) >= r.maxQueue {
		r.rejected++
		return ErrQueueFull
	}
	r.Acquire(fn)
	return nil
}

// Release returns a unit and grants the longest-waiting request, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("des: Release without Acquire")
	}
	r.accounting()
	r.inUse--
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		r.inUse++
		r.grants++
		if r.OnWait != nil {
			r.OnWait(r.sim.Now() - next.at)
		}
		r.sim.After(0, next.fn)
	}
}

func (r *Resource) accounting() {
	r.busyTime += float64(r.inUse) * (r.sim.Now() - r.lastTick)
	r.lastTick = r.sim.Now()
}

// InUse returns the currently held units.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of waiting requests.
func (r *Resource) QueueLen() int { return len(r.queue) }

// Grants returns how many acquisitions have been granted.
func (r *Resource) Grants() uint64 { return r.grants }

// EverQueued returns how many acquisitions had to wait.
func (r *Resource) EverQueued() uint64 { return r.queuedCum }

// Rejected returns how many Offers were refused with ErrQueueFull.
func (r *Resource) Rejected() uint64 { return r.rejected }

// QueueHighWater returns the maximum wait-queue depth ever observed.
func (r *Resource) QueueHighWater() int { return r.queueHW }

// Utilization returns average busy units divided by capacity since t=0.
func (r *Resource) Utilization() float64 {
	r.accounting()
	if r.sim.Now() == 0 {
		return 0
	}
	return r.busyTime / (r.sim.Now() * float64(r.cap))
}
