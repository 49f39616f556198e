// Package netsim models the RDMA-capable interconnect of the paper's
// Cluster B: Mellanox InfiniBand EDR (100 Gbps) with two-sided RDMA SEND
// message transfers, as used by the RDMA-Memcached Get/Multi-Get protocol.
//
// The model is a per-endpoint serializing NIC plus a constant propagation
// delay:
//
//	delivery = send-side overhead + size/bandwidth (serialized per NIC)
//	           + propagation + receive-side overhead
//
// This is the standard LogGP-style decomposition; the constants default to
// EDR-class values (100 Gbps, ~1 µs end-to-end for small messages), which is
// what RDMA-Memcached reports for two-sided SENDs on EDR hardware.
//
// Messages between the same endpoint pair are delivered in FIFO order, which
// matches reliable-connected (RC) queue-pair semantics.
package netsim

import (
	"fmt"

	"simdhtbench/internal/des"
	"simdhtbench/internal/fault"
	"simdhtbench/internal/obs"
)

// Config sets the fabric constants.
type Config struct {
	BandwidthGbps float64 // link bandwidth in Gbit/s
	PropDelay     float64 // one-way propagation + switching, seconds
	SendOverhead  float64 // CPU/NIC overhead per message at the sender, seconds
	RecvOverhead  float64 // CPU/NIC overhead per message at the receiver, seconds

	// MaxMessageBytes segments larger payloads into multiple SENDs, as the
	// RDMA-Memcached Get protocol does ("the request/response phases batch
	// the key/value data into multiple small message transfers"). Each
	// segment pays the per-message overheads; delivery fires when the last
	// segment arrives. 0 disables segmentation.
	MaxMessageBytes int
}

// EDR returns constants for InfiniBand EDR (100 Gbps) with µs-class
// small-message latency.
func EDR() Config {
	// EDR-class RDMA NICs (ConnectX-4/5) sustain >100 M msgs/s; the
	// per-message CPU/NIC overhead of a two-sided SEND is ~100 ns, and
	// one-way small-message latency lands near 0.7 µs.
	return Config{
		BandwidthGbps:   100,
		PropDelay:       500e-9,
		SendOverhead:    100e-9,
		RecvOverhead:    100e-9,
		MaxMessageBytes: 8192, // RDMA-Memcached-style small-message chunks
	}
}

// Fabric connects endpoints over a shared configuration.
type Fabric struct {
	sim *des.Sim
	cfg Config

	endpoints map[string]*Endpoint
	sent      uint64
	bytesSent uint64

	dropped    uint64
	duplicated uint64
	delayed    uint64

	// Probe, when non-nil, observes each logical send (obs layer).
	Probe obs.NetProbe

	// Faults, when non-nil, injects message drop/duplication/delay-spikes:
	// one independent decision per logical message, drawn in a fixed order
	// (drop, then delay, then duplicate) from the plan's seeded RNG, so a
	// faulty fabric replays exactly. FaultProbe, when additionally non-nil,
	// observes each injected fault.
	Faults     *fault.Plan
	FaultProbe obs.FaultProbe
}

// New creates a fabric on the given simulator.
func New(sim *des.Sim, cfg Config) *Fabric {
	if cfg.BandwidthGbps <= 0 {
		panic("netsim: bandwidth must be positive")
	}
	return &Fabric{sim: sim, cfg: cfg, endpoints: make(map[string]*Endpoint)}
}

// Endpoint returns (creating on first use) the named endpoint.
func (f *Fabric) Endpoint(name string) *Endpoint {
	if ep, ok := f.endpoints[name]; ok {
		return ep
	}
	ep := &Endpoint{fabric: f, name: name}
	f.endpoints[name] = ep
	return ep
}

// MessagesSent returns the total messages injected.
func (f *Fabric) MessagesSent() uint64 { return f.sent }

// BytesSent returns the total payload bytes injected.
func (f *Fabric) BytesSent() uint64 { return f.bytesSent }

// MessagesDropped returns the logical messages the fault plan dropped.
func (f *Fabric) MessagesDropped() uint64 { return f.dropped }

// MessagesDuplicated returns the logical messages delivered twice.
func (f *Fabric) MessagesDuplicated() uint64 { return f.duplicated }

// MessagesDelayed returns the logical messages hit by a delay spike.
func (f *Fabric) MessagesDelayed() uint64 { return f.delayed }

// TransferTime returns size/bandwidth in seconds.
func (f *Fabric) TransferTime(bytes int) float64 {
	return float64(bytes) * 8 / (f.cfg.BandwidthGbps * 1e9)
}

// SmallMessageLatency returns the end-to-end latency of a minimal message —
// useful for sanity checks and capacity planning.
func (f *Fabric) SmallMessageLatency() float64 {
	return f.cfg.SendOverhead + f.cfg.PropDelay + f.cfg.RecvOverhead
}

// Endpoint is one NIC port. Its sender serializes outgoing messages
// (bandwidth sharing) while deliveries at the destination run through the
// destination's receive overhead.
type Endpoint struct {
	fabric   *Fabric
	name     string
	busyTill float64
}

// Name returns the endpoint name.
func (e *Endpoint) Name() string { return e.name }

// Send transfers a message of the given payload size to dst, invoking
// deliver at the destination when it arrives. Sends from one endpoint
// serialize through its NIC.
//
//lint:hotpath zero-alloc steady state pinned by AllocsPerRun tests
func (e *Endpoint) Send(dst *Endpoint, bytes int, deliver func()) {
	if bytes < 0 {
		panic(fmt.Sprintf("netsim: negative message size %d", bytes))
	}
	f := e.fabric
	// Segment into protocol-sized messages; deliver fires with the last.
	segments := 1
	if f.cfg.MaxMessageBytes > 0 && bytes > f.cfg.MaxMessageBytes {
		segments = (bytes + f.cfg.MaxMessageBytes - 1) / f.cfg.MaxMessageBytes
	}
	remaining := bytes
	var arrival float64
	for seg := 0; seg < segments; seg++ {
		segBytes := remaining
		if f.cfg.MaxMessageBytes > 0 && segBytes > f.cfg.MaxMessageBytes {
			segBytes = f.cfg.MaxMessageBytes
		}
		remaining -= segBytes
		start := f.sim.Now()
		if e.busyTill > start {
			start = e.busyTill
		}
		txDone := start + f.cfg.SendOverhead + f.TransferTime(segBytes)
		e.busyTill = txDone
		arrival = txDone + f.cfg.PropDelay + f.cfg.RecvOverhead
		f.sent++
		f.bytesSent += uint64(segBytes)
	}
	if f.Probe != nil {
		f.Probe.MessageSent(e.name, dst.name, bytes, segments, f.sim.Now(), arrival)
	}
	// Fault injection: one decision per logical message, drawn in fixed
	// order (drop, delay, duplicate). A dropped message still occupied the
	// sender's NIC — it is lost in the fabric, not suppressed at the source.
	if f.Faults != nil {
		if f.Faults.DropMessage() {
			f.dropped++
			if f.FaultProbe != nil {
				f.FaultProbe.MessageDropped(e.name, dst.name, bytes, f.sim.Now())
			}
			return
		}
		if extra := f.Faults.DelaySpike(); extra > 0 {
			f.delayed++
			if f.FaultProbe != nil {
				f.FaultProbe.MessageDelayed(e.name, dst.name, bytes, extra, f.sim.Now())
			}
			arrival += extra
		}
		if f.Faults.DuplicateMessage() {
			f.duplicated++
			if f.FaultProbe != nil {
				f.FaultProbe.MessageDuplicated(e.name, dst.name, bytes, f.sim.Now())
			}
			// The duplicate trails the original by one receive overhead,
			// as a retransmitted SEND would.
			f.sim.At(arrival+f.cfg.RecvOverhead, deliver)
		}
	}
	f.sim.At(arrival, deliver)
}
