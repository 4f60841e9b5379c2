// Package orch implements FTC's centralized orchestrator (§3.2, §5.2): it
// deploys fault-tolerant chains, reliably monitors replicas with
// heartbeats, detects fail-stop failures, and drives the three-step
// recovery — spawn a replacement, recover state from alive group members,
// and reroute traffic. In the paper the orchestrator is an ONOS SDN
// controller; here it is an Ensemble of fabric nodes issuing the same
// control-plane actions, and like the paper's it stays entirely off the
// data path. An ensemble of one (the default) is the paper's single
// controller; larger ensembles replicate it (DESIGN.md §14). Either way
// every recovery runs through the one fenced, logged driver.
package orch

import (
	"fmt"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
)

// Phase identifies a recovery sub-step for the OnPhase hook. The chaos
// harness uses these to inject crashes in the middle of a recovery — the
// multi-failure interleavings of the FTC technical report's §5.2
// experiments ("if the contacted replica fails during recovery, the
// orchestrator re-initializes the new replica").
type Phase int

// Recovery sub-steps, in execution order.
const (
	// PhaseSpawned fires after the replacement's fabric node exists but
	// before any state has been fetched.
	PhaseSpawned Phase = iota
	// PhaseFetched fires after state recovery succeeded, before rerouting.
	PhaseFetched
	// PhaseAdopted fires after the chain has been rerouted through the
	// replacement (the recovery is complete but the report not yet
	// recorded).
	PhaseAdopted
)

// String names the phase for traces.
func (p Phase) String() string {
	switch p {
	case PhaseSpawned:
		return "spawned"
	case PhaseFetched:
		return "fetched"
	case PhaseAdopted:
		return "adopted"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// PhaseEvent describes one recovery sub-step transition passed to OnPhase.
type PhaseEvent struct {
	// RingIndex is the ring position being recovered.
	RingIndex int
	// Phase is the sub-step just completed.
	Phase Phase
	// Replacement is the fabric node of the replica being brought up.
	Replacement netsim.NodeID
}

// Config tunes failure detection.
type Config struct {
	// HeartbeatEvery is the ping period per replica.
	HeartbeatEvery time.Duration
	// HeartbeatTimeout is the per-ping timeout.
	HeartbeatTimeout time.Duration
	// Misses is how many consecutive missed heartbeats declare a failure.
	Misses int
	// RecoveryTimeout bounds one full recovery.
	RecoveryTimeout time.Duration

	// Members is the ensemble size (leader + followers). 1, the default,
	// runs an unreplicated leader (no failover); 3 survives one
	// orchestrator crash; 5 survives two, including killing the new
	// leader during its takeover.
	Members int
	// LeaseEvery is the leader's lease-renewal period to followers.
	LeaseEvery time.Duration
	// ElectionAfter is how long a follower waits without leader contact
	// before standing for election; candidacy is additionally staggered
	// by rank so members stand one at a time.
	ElectionAfter time.Duration
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 20 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = c.HeartbeatEvery
	}
	if c.Misses <= 0 {
		c.Misses = 3
	}
	if c.RecoveryTimeout <= 0 {
		c.RecoveryTimeout = 30 * time.Second
	}
	if c.Members <= 0 {
		c.Members = 1
	}
	if c.LeaseEvery <= 0 {
		c.LeaseEvery = 10 * time.Millisecond
	}
	if c.ElectionAfter <= 0 {
		c.ElectionAfter = 12 * c.LeaseEvery
	}
	return c
}

// RecoveryReport records the timing of one replica recovery, matching the
// breakdown of Figure 13: initialization (spawning the replacement and
// informing it about the alive replicas), state recovery (fetching state
// from remote group members), and rerouting.
type RecoveryReport struct {
	RingIndex  int
	Middlebox  string
	DetectedAt time.Time
	Init       time.Duration
	StateFetch time.Duration
	Reroute    time.Duration
	Total      time.Duration
	Err        error
	// Term is the leader term that completed the recovery.
	Term uint64
	// Resumed marks a recovery continued across a leader failover: its
	// phase timings span the takeover gap, so latency-bound checks
	// should treat it separately.
	Resumed bool
}
