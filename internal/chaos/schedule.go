// Package chaos is the deterministic fault-injection campaign harness: it
// composes failure schedules — replica crashes up to the chain's tolerance
// f (including crashes in the middle of a recovery and simultaneous
// correlated crashes), link loss/latency/reorder storms, and short
// partitions between adjacent hops — against a live FTC chain, drives
// recovery through the orchestrator, and checks the paper's §5.2
// correctness claims after quiescence: no duplicate egress, no
// committed-then-lost state, head/follower convergence, and bounded
// recovery time.
//
// Everything about a campaign derives from a single int64 seed, so any
// failing run reproduces with
//
//	go test -race ./internal/chaos -run TestChaosCampaign -chaos.seed=N -v
//
// Determinism rules (DESIGN.md §10): Derive may consume only its seeded
// math/rand stream — never the wall clock, never global rand — and its
// field-generation order is part of the schedule format; reordering calls
// reshuffles every seed's campaign. Execution (Run) is wall-clock paced
// and subject to goroutine scheduling jitter, so a seed pins the injected
// faults, not the exact interleaving; the invariants must hold under every
// interleaving of the same schedule.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/orch"
)

// State-engine selectors for Campaign.Engine.
const (
	// Engine2PL selects the pessimistic wound-wait two-phase-locking store.
	Engine2PL = "2pl"
	// EngineOCC selects the optimistic engine (§3.2's HTM-style adaptation).
	EngineOCC = "occ"
)

// KillReplacement as a MidRecovery target crashes the replacement replica
// being brought up instead of an original ring position — the
// "crash-during-recovery" case where the orchestrator must detect that its
// freshly adopted node is dead and run recovery again.
const KillReplacement = -1

// MidRecovery is a fault rider on an episode: when the first recovery of
// the episode reaches Phase, crash Target (a ring position not already
// crashed by the episode) or, with Target == KillReplacement, the
// replacement itself.
type MidRecovery struct {
	// Phase is the recovery sub-step that triggers the rider
	// (orch.PhaseSpawned or orch.PhaseFetched).
	Phase orch.Phase
	// Target is the ring position to crash, or KillReplacement.
	Target int
}

// OrchKill is the orchestrator-leader kill rider: when the first recovery
// of the campaign reaches Phase, the current ensemble leader is
// fail-stopped mid-command, forcing a follower to take over and resume
// the half-done recovery from the replicated log. With KillSuccessor the
// new leader is killed too, during its takeover (after it fenced the
// chain, before it resumes anything), so a third leader finishes the job.
type OrchKill struct {
	// Phase is the recovery sub-step at which the leader dies
	// (PhaseSpawned, PhaseFetched, or PhaseAdopted — unlike MidRecovery,
	// killing the controller after adoption is interesting: only the
	// log close is lost).
	Phase orch.Phase
	// KillSuccessor also kills the next leader during takeover.
	KillSuccessor bool
}

// Episode is one correlated-failure event: after a delay, crash 1..f ring
// positions simultaneously, then drive recovery for each (with an optional
// MidRecovery rider). The campaign runner barriers on every position being
// alive again before the next episode, which is what keeps the whole
// schedule within the ≤ f concurrent-failure envelope the protocol
// guarantees against.
type Episode struct {
	// After is the delay before the crashes, measured from the end of the
	// previous episode (or campaign start for the first).
	After time.Duration
	// Crashes lists the ring positions fail-stopped simultaneously.
	Crashes []int
	// Mid, if non-nil, injects a second fault mid-recovery.
	Mid *MidRecovery
}

// LinkFaultSpec is one scripted link fault on the chain's data path,
// resolved to concrete fabric nodes at onset time (so a fault scheduled
// after a recovery hits the replacement's links, not a dead node's).
type LinkFaultSpec struct {
	// Hop names the faulted link: -1 is generator→ingress, i in [0,
	// ringLen-1) is ring position i→i+1, and ringLen-1 is tail→egress.
	Hop int
	// At is the fault onset relative to campaign start.
	At time.Duration
	// Duration is the fault window length; the link then returns to the
	// fabric's default (healthy) profile.
	Duration time.Duration
	// Profile is the link profile in effect during the window (loss,
	// latency/jitter, reorder, or Down for a partition).
	Profile netsim.LinkProfile
	// Both applies the fault to the reverse direction too (partitions cut
	// both directions; loss/latency storms hit only the data direction).
	Both bool
}

// Campaign is one fully specified chaos run: the matrix cell (f, state
// engine), the workload, and the fault schedule. Build one with
// Derive or by hand (negative-control tests hand-build invalid ones).
type Campaign struct {
	// Seed reproduces the campaign; it also seeds the fabric's link
	// randomness so loss/reorder draws repeat.
	Seed int64
	// F is the failure tolerance under test (state replicated to F+1).
	F int
	// Engine selects the state engine (Engine2PL or EngineOCC).
	Engine string
	// FlowTTL arms flow-state aging on the chain (a long TTL on a manual
	// clock, so nothing expires mid-workload); after the normal audits the
	// runner jumps the clock past the TTL, forces expiry, and audits that no
	// surviving store resurrects an expired flow key.
	FlowTTL bool
	// ChainLen is the middlebox count; the ring extends to F+1 if longer.
	ChainLen int
	// Workers is the packet-processing thread count per replica.
	Workers int
	// Flows is the distinct five-tuple count in the workload.
	Flows int
	// Packets is the total packet count injected.
	Packets int
	// PaceEvery and Pace throttle injection: sleep Pace after every
	// PaceEvery packets, spreading the workload across the fault windows.
	PaceEvery int
	// Pace is the sleep per PaceEvery packets.
	Pace time.Duration
	// Episodes is the crash schedule, executed in order.
	Episodes []Episode
	// OrchKill, if non-nil, kills the orchestrator leader (and optionally
	// its successor) mid-recovery — the control-plane failure injection.
	OrchKill *OrchKill
	// OrchMembers is the orchestrator ensemble size: 5 when the successor
	// is killed too (two crashes must leave a quorum), else 3.
	OrchMembers int
	// LinkFaults is the link-fault timeline (windows disjoint per hop).
	LinkFaults []LinkFaultSpec
	// RecoveryBound fails any successful recovery slower than this and
	// bounds each recovery attempt's context.
	RecoveryBound time.Duration
	// QuiesceTimeout bounds the post-workload wait for replication
	// quiescence.
	QuiesceTimeout time.Duration
}

// RingLen is the replica-ring length (max of ChainLen and F+1), the bound
// for ring positions in Episodes and LinkFaults.
func (c Campaign) RingLen() int {
	if m := c.F + 1; m > c.ChainLen {
		return m
	}
	return c.ChainLen
}

// Derive expands a seed into a campaign. The matrix cell comes from
// seed mod 8 — bit 0 picks f∈{1,2}, bit 1 the state engine — so any 4
// consecutive seeds sweep the full f=1..2 × {2pl,occ} matrix. Bit 2 once
// picked the scheduler (work stealing or pinned workers); pinned workers
// are now the only scheduler, so it selects nothing, and seeds that
// differ only in it run the same cell with different schedules. Bit 3
// toggles FlowTTL (read
// straight off the seed, consuming no rng draws, so adding it did not
// reshuffle existing schedules); everything else comes from a rand stream
// seeded with the seed. Bits 4–6 select the orchestrator-leader kill
// (also read straight off the seed): 1–3 kill the leader at
// spawned/fetched/adopted, 4–6 the same phase plus the successor during
// takeover, 0 and 7 leave the control plane unattacked.
func Derive(seed int64) Campaign {
	cell := int(((seed % 8) + 8) % 8)
	c := Campaign{
		Seed:           seed,
		F:              1 + cell&1,
		Engine:         Engine2PL,
		FlowTTL:        (seed>>3)&1 != 0,
		Workers:        2,
		OrchMembers:    3,
		RecoveryBound:  5 * time.Second,
		QuiesceTimeout: 30 * time.Second,
	}
	switch k := (seed >> 4) & 7; k {
	case 1, 2, 3:
		c.OrchKill = &OrchKill{Phase: orch.Phase(k - 1)}
	case 4, 5, 6:
		c.OrchKill = &OrchKill{Phase: orch.Phase(k - 4), KillSuccessor: true}
		c.OrchMembers = 5
	}
	if cell&2 != 0 {
		c.Engine = EngineOCC
	}
	rng := rand.New(rand.NewSource(seed))
	c.ChainLen = 2 + rng.Intn(2)
	c.Flows = 8 + rng.Intn(25)
	c.Packets = 240 + rng.Intn(261)
	c.PaceEvery = 8 + rng.Intn(9)
	c.Pace = 2*time.Millisecond + time.Duration(rng.Intn(2000))*time.Microsecond
	m := c.RingLen()

	episodes := 1 + rng.Intn(2)
	for e := 0; e < episodes; e++ {
		ep := Episode{After: time.Duration(10+rng.Intn(40)) * time.Millisecond}
		count := 1
		if c.F > 1 && rng.Float64() < 0.4 {
			count = 2
		}
		perm := rng.Perm(m)
		ep.Crashes = append([]int(nil), perm[:count]...)
		sort.Ints(ep.Crashes)
		if rng.Float64() < 0.5 {
			mid := &MidRecovery{Phase: orch.PhaseSpawned, Target: KillReplacement}
			if rng.Intn(2) == 1 {
				mid.Phase = orch.PhaseFetched
			}
			// Crashing a second original replica mid-recovery needs spare
			// failure budget; otherwise the rider kills the replacement.
			if c.F-count >= 1 && rng.Intn(2) == 1 {
				mid.Target = perm[count]
			}
			ep.Mid = mid
		}
		c.Episodes = append(c.Episodes, ep)
	}

	faults := rng.Intn(3)
	for i := 0; i < faults; i++ {
		lf := LinkFaultSpec{
			Hop:      -1 + rng.Intn(m+1),
			At:       time.Duration(rng.Intn(200)) * time.Millisecond,
			Duration: time.Duration(20+rng.Intn(60)) * time.Millisecond,
		}
		switch rng.Intn(4) {
		case 0: // short partition, both directions
			lf.Profile = netsim.LinkProfile{Down: true}
			lf.Both = true
			if lf.Duration > 60*time.Millisecond {
				lf.Duration = 60 * time.Millisecond
			}
		case 1: // latency/jitter spike
			lf.Profile = netsim.LinkProfile{
				Latency: time.Duration(200+rng.Intn(1800)) * time.Microsecond,
				Jitter:  time.Duration(rng.Intn(500)) * time.Microsecond,
			}
		default: // loss storm with light reordering (reorder delays scale
			// with latency, so give the link a little)
			lf.Profile = netsim.LinkProfile{
				LossRate:    0.05 + 0.15*rng.Float64(),
				ReorderRate: 0.1 * rng.Float64(),
				Latency:     time.Duration(50+rng.Intn(200)) * time.Microsecond,
			}
		}
		c.LinkFaults = append(c.LinkFaults, lf)
	}
	c.LinkFaults = pruneOverlaps(c.LinkFaults)
	return c
}

// pruneOverlaps drops any fault whose window overlaps an earlier one on
// the same hop (last-writer-wins profile swaps would make the restored
// state depend on timer order), then returns the list sorted by onset.
func pruneOverlaps(faults []LinkFaultSpec) []LinkFaultSpec {
	sort.SliceStable(faults, func(i, j int) bool {
		if faults[i].Hop != faults[j].Hop {
			return faults[i].Hop < faults[j].Hop
		}
		return faults[i].At < faults[j].At
	})
	var out []LinkFaultSpec
	for _, lf := range faults {
		n := len(out)
		if n > 0 && out[n-1].Hop == lf.Hop && out[n-1].At+out[n-1].Duration >= lf.At {
			continue
		}
		out = append(out, lf)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Validate checks that the campaign stays inside the protocol's guarantee
// envelope: at most f concurrent original-replica failures per episode,
// ring positions in range, and per-hop link-fault windows disjoint. Derive
// always produces valid campaigns (the schedule property test proves it);
// hand-built negative controls are expected to fail here.
func (c Campaign) Validate() error {
	if c.F < 1 {
		return fmt.Errorf("chaos: f=%d, want ≥ 1", c.F)
	}
	if c.Engine != Engine2PL && c.Engine != EngineOCC {
		return fmt.Errorf("chaos: unknown state engine %q", c.Engine)
	}
	if c.ChainLen < 1 || c.Packets <= 0 || c.Flows <= 0 {
		return fmt.Errorf("chaos: degenerate workload (chain=%d packets=%d flows=%d)",
			c.ChainLen, c.Packets, c.Flows)
	}
	m := c.RingLen()
	for ei, ep := range c.Episodes {
		if len(ep.Crashes) == 0 {
			return fmt.Errorf("chaos: episode %d crashes nothing", ei)
		}
		seen := make(map[int]bool, len(ep.Crashes))
		for _, p := range ep.Crashes {
			if p < 0 || p >= m {
				return fmt.Errorf("chaos: episode %d crashes ring position %d outside [0,%d)", ei, p, m)
			}
			if seen[p] {
				return fmt.Errorf("chaos: episode %d crashes position %d twice", ei, p)
			}
			seen[p] = true
		}
		concurrent := len(ep.Crashes)
		if mid := ep.Mid; mid != nil {
			if mid.Phase != orch.PhaseSpawned && mid.Phase != orch.PhaseFetched {
				return fmt.Errorf("chaos: episode %d rider at phase %v (must precede adoption)", ei, mid.Phase)
			}
			if mid.Target != KillReplacement {
				if mid.Target < 0 || mid.Target >= m {
					return fmt.Errorf("chaos: episode %d rider targets position %d outside [0,%d)", ei, mid.Target, m)
				}
				if seen[mid.Target] {
					return fmt.Errorf("chaos: episode %d rider targets already-crashed position %d", ei, mid.Target)
				}
				concurrent++
			}
		}
		if concurrent > c.F {
			return fmt.Errorf("chaos: episode %d injects %d concurrent replica failures > f=%d",
				ei, concurrent, c.F)
		}
	}
	if c.OrchMembers != 0 && (c.OrchMembers < 1 || c.OrchMembers%2 == 0) {
		return fmt.Errorf("chaos: orchestrator ensemble of %d members (want odd: clean majorities)", c.OrchMembers)
	}
	if k := c.OrchKill; k != nil {
		if k.Phase != orch.PhaseSpawned && k.Phase != orch.PhaseFetched && k.Phase != orch.PhaseAdopted {
			return fmt.Errorf("chaos: orchestrator kill at unknown phase %v", k.Phase)
		}
		// Killing n leaders must leave a majority of the ensemble alive,
		// or no successor can win an election and the campaign hangs.
		need := 3
		if k.KillSuccessor {
			need = 5
		}
		if c.OrchMembers < need {
			return fmt.Errorf("chaos: orchestrator kill needs ≥ %d ensemble members, have %d", need, c.OrchMembers)
		}
	}
	byHop := make(map[int][]LinkFaultSpec)
	for i, lf := range c.LinkFaults {
		if lf.Hop < -1 || lf.Hop >= m {
			return fmt.Errorf("chaos: link fault %d on hop %d outside [-1,%d)", i, lf.Hop, m)
		}
		if lf.At < 0 || lf.Duration <= 0 {
			return fmt.Errorf("chaos: link fault %d has empty window", i)
		}
		byHop[lf.Hop] = append(byHop[lf.Hop], lf)
	}
	for hop, lfs := range byHop {
		sort.Slice(lfs, func(i, j int) bool { return lfs[i].At < lfs[j].At })
		for i := 1; i < len(lfs); i++ {
			if lfs[i-1].At+lfs[i-1].Duration >= lfs[i].At {
				return fmt.Errorf("chaos: overlapping link-fault windows on hop %d", hop)
			}
		}
	}
	return nil
}

// orchMembers is the effective ensemble size; hand-built campaigns may
// leave OrchMembers zero, which runs a single unreplicated leader.
func (c Campaign) orchMembers() int {
	if c.OrchMembers < 1 {
		return 1
	}
	return c.OrchMembers
}
