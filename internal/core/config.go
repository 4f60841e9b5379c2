package core

import (
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/state"
)

// Config holds the FTC protocol parameters shared by all replicas of a
// chain.
type Config struct {
	// F is the number of simultaneous replica failures tolerated. State is
	// replicated to F+1 replicas (§3.1).
	F int
	// NumMB is the number of middleboxes in the chain.
	NumMB int
	// Partitions is the state-partition count per middlebox store. It must
	// exceed the maximum worker count to keep lock contention low (§4.2).
	Partitions int
	// Workers is the number of packet-processing threads per replica.
	Workers int
	// Burst is the vector-processing batch size: each worker drains up to
	// this many frames per ingress wakeup and amortizes route resolution,
	// state-lock acquisition, retransmission-buffer appends, and commit
	// dissemination across them (DPDK-style burst processing). Partial
	// bursts flush immediately, so bursting adds no latency floor; Burst=1
	// degenerates to per-packet processing. Burst 0 — the default — selects
	// the NAPI-style adaptive controller: each worker's burst starts at 1,
	// doubles toward MaxBurst while its queue stays backlogged, and halves
	// toward 1 when drains come up short (DESIGN.md §9).
	Burst int
	// MaxBurst caps the adaptive controller's growth (default
	// netsim.DefaultMaxBurst). Ignored when Burst > 0 pins a fixed size.
	MaxBurst int
	// QueueCap is the per-ingress-queue capacity in frames.
	QueueCap int
	// PropagateEvery is the forwarder's idle timer: with no incoming
	// traffic, a propagating packet carries pending piggyback state through
	// the chain at this period (§5.1).
	PropagateEvery time.Duration
	// RepairEvery is how long a follower waits for a missing predecessor
	// log before requesting retransmission from its group predecessor.
	RepairEvery time.Duration
	// RepairDeadline bounds the total wait for a missing log; packets whose
	// logs cannot be repaired within it are counted and passed on.
	RepairDeadline time.Duration
	// ResendAfter is how long the forwarder waits for a pending piggyback
	// log to be committed before attaching it to another packet.
	ResendAfter time.Duration
	// CommitRefresh bounds how stale a tail's disseminated commit vector
	// may get: commits ride every commitEvery'th packet, but at low rates a
	// time-based refresh keeps buffer-release latency bounded.
	CommitRefresh time.Duration
	// Gen is the chain generation; recovery bumps it to fence stale
	// in-flight packets (§4.1 "will no longer admit packets in flight").
	Gen uint32
	// NewStore builds the state engine for each replica store. Defaults to
	// the pessimistic state.New (wound-wait 2PL); state.NewOCC selects the
	// optimistic engine (§3.2's HTM-style adaptation).
	NewStore func(partitions int) state.Backend
	// FlowTTL, when positive, ages idle flow entries out of middlebox
	// stores: keys matching a middlebox's FlowTTLer prefixes expire FlowTTL
	// after their last write or transactional read. Expiry runs at the head
	// on burst boundaries and resend ticks — never on followers — and each
	// expired key becomes an ordinary replicated deletion, so store digests
	// stay equal across the replication group. Zero (the default) disables
	// aging; existing workloads and baselines are unaffected.
	FlowTTL time.Duration
	// ExpiryEvery throttles how often a head scans its TTL wheels (default
	// 1ms). Scans are capped at ExpiryBatch keys, so a backlog of expired
	// flows drains over several bursts instead of stalling one.
	ExpiryEvery time.Duration
	// ExpiryBatch caps the replicated deletions per expiry scan (default
	// 256).
	ExpiryBatch int
	// ExpiryClock overrides the expiry time source (nanoseconds; must be
	// positive). Nil means wall clock. Tests and the chaos harness inject a
	// manual clock to force or forbid expiry deterministically.
	ExpiryClock func() int64
	// NoDiet disables the piggyback diet: replicas speak the fixed-width v1
	// wire format, burst coalescing and delta encoding are off, and every
	// transaction's log rides its own packet in full. The diet is on by
	// default; NoDiet exists for baselines, equivalence tests, and talking
	// to pre-diet peers.
	NoDiet bool
	// PiggybackBudget caps the piggyback trailer bytes attached to one data
	// packet. A log that would push the trailer past the budget is elided
	// from the packet (its dependency vector still rides, gating release at
	// the egress buffer) and its updates spill to the group followers over
	// the background spillover RPC. Zero means unlimited — the pre-budget
	// behavior, where oversized state can overflow the MTU and drop frames.
	PiggybackBudget int
	// Groups, when non-nil, pins each middlebox's replication group to an
	// explicit list of ring positions (head first) instead of the paper's
	// F+1-consecutive-successors rule. Normally produced by the cost-aware
	// placement planner (see PlanGroups) rather than written by hand.
	Groups [][]int
	// CarrierCapacity, when positive, bounds how many follower replicas each
	// ring node may host and turns on cost-aware carrier placement: chains
	// built through NewChain ask each middlebox for its per-packet carrier
	// cost and assign the costliest states to the nearest downstream nodes
	// with free capacity. Zero keeps the consecutive-successors layout.
	CarrierCapacity int
}

// WithDefaults fills zero fields with production defaults.
func (c Config) WithDefaults() Config {
	if c.F <= 0 {
		c.F = 1
	}
	if c.Partitions <= 0 {
		c.Partitions = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Burst < 0 {
		c.Burst = 0 // adaptive
	}
	if c.MaxBurst <= 0 {
		c.MaxBurst = netsim.DefaultMaxBurst
	}
	if c.Burst > c.MaxBurst {
		c.MaxBurst = c.Burst
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.PropagateEvery <= 0 {
		c.PropagateEvery = time.Millisecond
	}
	if c.RepairEvery <= 0 {
		c.RepairEvery = 2 * time.Millisecond
	}
	if c.RepairDeadline <= 0 {
		c.RepairDeadline = 2 * time.Second
	}
	if c.ResendAfter <= 0 {
		// Resend covers *lost* transfer frames, so it must sit well above
		// the normal commit latency (ring traversal + dissemination period);
		// resending live-but-uncommitted logs snowballs message sizes.
		c.ResendAfter = 4 * c.PropagateEvery
		if c.ResendAfter < 10*time.Millisecond {
			c.ResendAfter = 10 * time.Millisecond
		}
	}
	if c.CommitRefresh <= 0 {
		c.CommitRefresh = 200 * time.Microsecond
	}
	if c.NewStore == nil {
		c.NewStore = func(partitions int) state.Backend { return state.New(partitions) }
	}
	if c.ExpiryEvery <= 0 {
		c.ExpiryEvery = time.Millisecond
	}
	if c.ExpiryBatch <= 0 {
		c.ExpiryBatch = 256
	}
	return c
}

// DefaultBurst is the classic fixed vector-processing batch size, matching
// the paper testbed's DPDK burst of 32 frames per poll. Since the adaptive
// controller became the default (Burst=0), it remains the fixed-burst
// reference point for baselines and equivalence tests.
const DefaultBurst = 32

// maxBurst returns the largest burst a worker may drain — the fixed size,
// or the adaptive cap. Receive buffers are sized with it.
func (c Config) maxBurst() int {
	if c.Burst > 0 {
		return c.Burst
	}
	return c.MaxBurst
}

// NumIngressQueues is the ingress-queue count a replica node needs under
// this config: one RSS queue per worker (DESIGN.md §9).
func (c Config) NumIngressQueues() int { return c.Workers }

// Ring derives the chain's logical ring from the configuration.
func (c Config) Ring() Ring { return Ring{N: c.NumMB, F: c.F, Groups: c.Groups} }
