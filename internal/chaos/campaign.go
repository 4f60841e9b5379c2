package chaos

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/exp"
	"github.com/ftsfc/ftc/internal/mbox"
	"github.com/ftsfc/ftc/internal/metrics"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/orch"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// TraceFunc receives verbose campaign events (one line per call) when
// installed via Options.Trace.
type TraceFunc func(format string, args ...any)

// Options tunes one Run without being part of the seeded schedule.
type Options struct {
	// Trace, if set, receives a timestamped line per campaign event.
	Trace TraceFunc
	// PostQuiesce, if set, runs after the chain quiesced and the sink
	// drained, just before the invariant audit. Negative-control tests use
	// it to tamper with replica state and prove the checkers can fail;
	// leave nil otherwise.
	PostQuiesce func(*core.Chain)
	// PostExpire, if set, runs after the forced-expiry epoch re-quiesced,
	// just before the flow-resurrection audit (FlowTTL campaigns only). The
	// negative-control test uses it to fabricate a resurrected flow key.
	PostExpire func(*core.Chain)
}

// Result is the outcome of one campaign.
type Result struct {
	// Campaign echoes the schedule that ran.
	Campaign Campaign
	// Sent is how many workload packets were injected.
	Sent int
	// Delivered is how many frames the sink received.
	Delivered int
	// Crashes counts fail-stops injected (episodes plus riders).
	Crashes int
	// Recoveries counts successful recovery reports.
	Recoveries int
	// Retries counts recovery attempts that failed or adopted a dead
	// replacement and were retried (expected under crash-during-recovery).
	Retries int
	// Detected is how many failures the heartbeat detector declared on its
	// own (the runner usually beats it to the recovery).
	Detected uint64
	// LeaderKills counts orchestrator leaders fail-stopped by the OrchKill
	// rider (1, or 2 with KillSuccessor).
	LeaderKills int
	// Takeovers counts completed leader installations, including the
	// initial one — ≥ 2 whenever a leader kill actually forced a failover.
	Takeovers uint64
	// Resumed counts recoveries finished by a different leader than the
	// one that started them.
	Resumed int
	// Recovery and Fetch summarize the orchestrator's per-recovery timing
	// histograms.
	Recovery, Fetch metrics.Summary
	// Violations is the invariant audit's findings; empty means the
	// campaign passed.
	Violations []Violation
	// Elapsed is the campaign wall-clock time.
	Elapsed time.Duration
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// OneLine renders the result as a single log line.
func (r *Result) OneLine() string {
	return fmt.Sprintf(
		"seed=%-6d f=%d engine=%s ttl=%-5v sent=%d delivered=%d crashes=%d recoveries=%d retries=%d detected=%d leaderkills=%d takeovers=%d resumed=%d rec_p99=%v violations=%d elapsed=%v",
		r.Campaign.Seed, r.Campaign.F, r.Campaign.Engine, r.Campaign.FlowTTL,
		r.Sent, r.Delivered, r.Crashes, r.Recoveries, r.Retries, r.Detected,
		r.LeaderKills, r.Takeovers, r.Resumed,
		r.Recovery.P99.Round(time.Microsecond), len(r.Violations),
		r.Elapsed.Round(time.Millisecond))
}

// newStore maps the campaign's engine selector to a state constructor.
func (c Campaign) newStore() func(int) state.Backend {
	if c.Engine == EngineOCC {
		return func(n int) state.Backend { return state.NewOCC(n) }
	}
	return func(n int) state.Backend { return state.New(n) }
}

// parsePayloadID extracts the injected sequence number from a workload
// payload ("pkt-%06d").
func parsePayloadID(b []byte) (int, bool) {
	if len(b) < 10 || string(b[:4]) != "pkt-" {
		return 0, false
	}
	n, err := strconv.Atoi(string(b[4:10]))
	if err != nil {
		return 0, false
	}
	return n, true
}

// Run executes one campaign end to end: build the chain for the campaign's
// matrix cell, start the orchestrator, release the workload, play the
// crash episodes and link-fault timeline, wait for quiescence, and audit
// the invariants. It never calls t.Fatal — the caller decides what a
// non-empty Violations list means.
func Run(c Campaign, opt Options) *Result {
	start := time.Now()
	res := &Result{Campaign: c}
	trace := func(format string, args ...any) {
		if opt.Trace != nil {
			opt.Trace("%8.1fms  %s",
				float64(time.Since(start).Microseconds())/1000, fmt.Sprintf(format, args...))
		}
	}
	violate := func(inv, format string, args ...any) {
		v := Violation{inv, fmt.Sprintf(format, args...)}
		trace("VIOLATION %s", v)
		res.Violations = capped(res.Violations, v)
	}

	fab := netsim.New(netsim.Config{Seed: c.Seed})
	defer fab.Stop()
	gen := fab.AddNode("chaos-gen", netsim.NodeConfig{QueueCap: 1 << 14})
	sink := fab.AddNode("chaos-sink", netsim.NodeConfig{QueueCap: 1 << 15})

	mbs := exp.FlowCounterChain(c.ChainLen)(c.Workers)
	fcs := make([]*mbox.FlowCounter, len(mbs))
	for i, mb := range mbs {
		fcs[i] = mb.(*mbox.FlowCounter)
	}
	cfg := core.Config{
		F:              c.F,
		Workers:        c.Workers,
		Partitions:     32,
		QueueCap:       4096,
		PropagateEvery: time.Millisecond,
		RepairEvery:    2 * time.Millisecond,
		RepairDeadline: 10 * time.Second,
		NewStore:       c.newStore(),
	}
	// FlowTTL campaigns age flows on a manual clock: the TTL is far longer
	// than any campaign, so nothing expires mid-workload (the committed-state
	// audit needs every counter intact); the post-audit epoch jumps the clock
	// to force a full drain deterministically.
	var expOffset atomic.Int64
	if c.FlowTTL {
		const expiryBase = int64(1e15) // positive and far from tick zero
		cfg.FlowTTL = time.Hour
		cfg.ExpiryClock = func() int64 { return expiryBase + expOffset.Load() }
	}
	chain := core.NewChain(cfg, fab, "chaos", mbs, sink.ID())
	chain.Start()
	defer chain.Stop()

	// Conservative detection: the runner drives recoveries itself right
	// after each injected crash, so the heartbeat detector is redundancy —
	// tuned to need ~800ms of silence before declaring a failure, it never
	// false-positives under -race scheduling stalls. The orchestrator is a
	// replicated ensemble: elections are similarly conservative (a follower
	// stands after ~250ms of leader silence, staggered by rank) so a
	// takeover only ever happens because the OrchKill rider killed the
	// leader, not because -race starved the lease loop.
	o := orch.NewEnsemble(orch.Config{
		HeartbeatEvery:   15 * time.Millisecond,
		HeartbeatTimeout: 200 * time.Millisecond,
		Misses:           4,
		RecoveryTimeout:  c.RecoveryBound,
		Members:          c.orchMembers(),
		LeaseEvery:       15 * time.Millisecond,
		ElectionAfter:    250 * time.Millisecond,
	}, fab, "chaos-orch", chain)
	var crashes, retries atomic.Int64

	// Orchestrator-kill riders: one-shot, armed for the whole campaign.
	// The leader dies mid-command at the scheduled phase; with
	// KillSuccessor the next leader dies during its takeover (after the
	// election record replicated and the chain was fenced, before it
	// resumes the orphaned recovery), so a third leader finishes the job.
	var leaderKilled, successorKilled atomic.Bool
	var leaderKills atomic.Int64
	if k := c.OrchKill; k != nil && k.KillSuccessor {
		o.OnLeader = func(term uint64, member int) {
			if term >= 2 && leaderKilled.Load() && successorKilled.CompareAndSwap(false, true) {
				trace("rider: killing successor leader m%d during takeover at term %d", member, term)
				o.CrashMember(member)
				leaderKills.Add(1)
			}
		}
	}

	// Mid-recovery rider: armed per episode, fired by the orchestrator's
	// phase hook on whichever recovery first reaches the armed phase.
	var midMu sync.Mutex
	var pendingMid *MidRecovery
	midFired := false
	o.OnPhase = func(ev orch.PhaseEvent) {
		if k := c.OrchKill; k != nil && ev.Phase == k.Phase && leaderKilled.CompareAndSwap(false, true) {
			trace("rider: killing orchestrator leader at phase %v of recovery of ring %d", ev.Phase, ev.RingIndex)
			if o.CrashLeader() >= 0 {
				leaderKills.Add(1)
			}
		}
		midMu.Lock()
		m := pendingMid
		if m == nil || ev.Phase != m.Phase {
			midMu.Unlock()
			return
		}
		pendingMid = nil
		midFired = true
		midMu.Unlock()
		if m.Target == KillReplacement {
			trace("rider: killing replacement %s of ring %d at phase %v", ev.Replacement, ev.RingIndex, ev.Phase)
			if n := fab.Node(ev.Replacement); n != nil {
				n.Crash()
			}
		} else {
			trace("rider: crashing ring %d at phase %v of recovery of %d", m.Target, ev.Phase, ev.RingIndex)
			chain.Crash(m.Target)
			crashes.Add(1)
		}
	}
	o.Start()
	defer o.Stop()

	alive := func(idx int) bool {
		return core.Ping(context.Background(), fab, o.NodeID(), chain.RingID(idx), 250*time.Millisecond)
	}
	// recoverPosition restores ring position idx, retrying through failed
	// attempts and dead adoptions (the rider may kill the replacement
	// mid-recovery; Recover then reports success for a corpse and the
	// ping catches it).
	recoverPosition := func(idx int) bool {
		for attempt := 1; attempt <= 4; attempt++ {
			rep := o.Recover(idx)
			if rep.Err != nil {
				trace("recover ring %d attempt %d failed: %v", idx, attempt, rep.Err)
				retries.Add(1)
				continue
			}
			if alive(idx) {
				trace("recovered ring %d -> %s (total=%v fetch=%v)", idx, chain.RingID(idx),
					rep.Total.Round(time.Microsecond), rep.StateFetch.Round(time.Microsecond))
				return true
			}
			trace("recover ring %d attempt %d adopted a dead replacement; retrying", idx, attempt)
			retries.Add(1)
		}
		return false
	}
	// ensureAlive barriers an episode: every ring position must answer
	// pings again before the next episode may start, keeping the schedule
	// inside the ≤ f concurrent-failure envelope.
	ensureAlive := func() {
		deadline := time.Now().Add(2 * c.RecoveryBound)
		for {
			dead := -1
			for i := 0; i < chain.Len(); i++ {
				if !alive(i) {
					dead = i
					break
				}
			}
			if dead < 0 {
				return
			}
			if time.Now().After(deadline) {
				violate(InvRecoveryFailed, "ring position %d still dead %v after its crash", dead, 2*c.RecoveryBound)
				return
			}
			recoverPosition(dead)
		}
	}

	// Workload: Packets distinct payload IDs spread over Flows five-tuples,
	// paced so the fault timeline lands mid-traffic.
	workDone := make(chan struct{})
	var sent atomic.Int64
	go func() {
		defer close(workDone)
		for i := 0; i < c.Packets; i++ {
			flow := i % c.Flows
			p, err := wire.BuildUDP(wire.UDPSpec{
				SrcMAC: wire.MAC{2, 0, 0, 0, 0, 1}, DstMAC: wire.MAC{2, 0, 0, 0, 0, 2},
				Src: wire.Addr4(10, 0, byte(flow>>8), byte(flow)), Dst: wire.Addr4(192, 0, 2, 1),
				SrcPort: uint16(20000 + flow), DstPort: uint16(2000 + flow%8),
				Payload:  []byte(fmt.Sprintf("pkt-%06d", i)),
				Headroom: 512,
			})
			if err != nil {
				continue
			}
			if gen.Send(chain.IngressID(), p.Buf) == nil {
				sent.Add(1)
			}
			if c.PaceEvery > 0 && (i+1)%c.PaceEvery == 0 {
				time.Sleep(c.Pace)
			}
		}
	}()

	// Link-fault timeline: endpoints resolve at onset so a fault scheduled
	// after a recovery hits the replacement's links, not a dead node's.
	faultsDone := make(chan struct{})
	go func() {
		defer close(faultsDone)
		specs := append([]LinkFaultSpec(nil), c.LinkFaults...)
		sort.SliceStable(specs, func(i, j int) bool { return specs[i].At < specs[j].At })
		var scripts []*netsim.FaultScript
		for _, fs := range specs {
			if d := fs.At - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			var src, dst netsim.NodeID
			switch {
			case fs.Hop < 0:
				src, dst = gen.ID(), chain.RingID(0)
			case fs.Hop == chain.Len()-1:
				src, dst = chain.RingID(fs.Hop), sink.ID()
			default:
				src, dst = chain.RingID(fs.Hop), chain.RingID(fs.Hop+1)
			}
			trace("link fault hop %d (%s->%s) for %v: %+v", fs.Hop, src, dst, fs.Duration, fs.Profile)
			scripts = append(scripts, fab.ScheduleFaults([]netsim.LinkFault{{
				Src: src, Dst: dst, Both: fs.Both,
				At: 0, Duration: fs.Duration, During: fs.Profile,
			}}))
		}
		for _, sc := range scripts {
			sc.Wait()
		}
	}()

	// Crash episodes, serialized with a liveness barrier between them.
	for ei, ep := range c.Episodes {
		time.Sleep(ep.After)
		if ep.Mid != nil {
			m := *ep.Mid
			midMu.Lock()
			pendingMid, midFired = &m, false
			midMu.Unlock()
		}
		for _, idx := range ep.Crashes {
			trace("episode %d: crashing ring %d (%s)", ei, idx, chain.RingID(idx))
			chain.Crash(idx)
			crashes.Add(1)
		}
		for _, idx := range ep.Crashes {
			recoverPosition(idx)
		}
		midMu.Lock()
		fired := midFired
		pendingMid = nil
		midMu.Unlock()
		if ep.Mid != nil && fired && ep.Mid.Target != KillReplacement {
			recoverPosition(ep.Mid.Target)
		}
		ensureAlive()
	}

	<-workDone
	<-faultsDone
	// Let the last scheduled (latency-delayed) deliveries land, then stop
	// the detector before the audit so nothing mutates the ring under it.
	time.Sleep(20 * time.Millisecond)
	o.Stop()

	if err := chain.WaitQuiescent(c.QuiesceTimeout); err != nil {
		violate(InvNoQuiescence, "%v", err)
	}

	// Drain the sink: every released packet is in its queue by quiescence.
	var records []EgressRecord
	for idle := 0; idle < 50; {
		in, ok := sink.TryRecv(0)
		if !ok {
			idle++
			time.Sleep(2 * time.Millisecond)
			continue
		}
		idle = 0
		p, err := wire.Parse(in.Frame)
		if err != nil {
			violate(InvUnknownEgress, "unparseable egress frame: %v", err)
			continue
		}
		id, ok := parsePayloadID(p.Payload())
		if !ok {
			violate(InvUnknownEgress, "egress payload %q is not a workload packet", p.Payload())
			continue
		}
		records = append(records, EgressRecord{ID: id, Flow: p.FiveTuple()})
	}

	if opt.PostQuiesce != nil {
		opt.PostQuiesce(chain)
	}

	// The audit.
	for _, v := range CheckEgress(records, c.Packets) {
		trace("VIOLATION %s", v)
		res.Violations = append(res.Violations, v)
	}
	for _, v := range checkCommitted(chain, fcs, records) {
		trace("VIOLATION %s", v)
		res.Violations = append(res.Violations, v)
	}
	if err := chain.CheckConvergence(); err != nil {
		violate(InvDivergentStores, "%v", err)
	}
	for _, rep := range o.Reports() {
		// Resumed recoveries span the failover gap (election timeout
		// included), so the single-leader latency bound does not apply.
		if rep.Err == nil && !rep.Resumed && rep.Total > c.RecoveryBound {
			violate(InvRecoverySlow, "ring %d recovered in %v > bound %v", rep.RingIndex, rep.Total, c.RecoveryBound)
		}
		if rep.Err == nil {
			res.Recoveries++
			if rep.Resumed {
				res.Resumed++
			}
		}
	}

	// Control-plane audit: replay the ensemble's committed command log and
	// check that no recovery was orphaned by a leader kill and no ring
	// position was recovered twice for the same epoch by rival leaders.
	for _, v := range CheckControlLog(o.View()) {
		trace("VIOLATION %s", v)
		res.Violations = append(res.Violations, v)
	}
	if c.OrchKill != nil && leaderKilled.Load() && o.Takeovers() < 2 {
		violate(InvOrphanedRecovery, "leader killed but no successor ever took over (takeovers=%d)", o.Takeovers())
	}

	// Forced-expiry epoch: with the normal audits done (they need the flow
	// counters intact), jump the manual clock past the TTL, drain every flow
	// entry through the replicated-deletion path, and audit that no
	// surviving store — including recovered replacements — resurrects one.
	if c.FlowTTL {
		expOffset.Add(int64(2 * time.Hour))
		trace("forced expiry installed %d deletions", chain.TriggerExpiry())
		if err := chain.WaitQuiescent(c.QuiesceTimeout); err != nil {
			violate(InvNoQuiescence, "after forced expiry: %v", err)
		}
		if opt.PostExpire != nil {
			opt.PostExpire(chain)
		}
		for _, v := range checkResurrected(chain, fcs) {
			trace("VIOLATION %s", v)
			res.Violations = append(res.Violations, v)
		}
		if err := chain.CheckConvergence(); err != nil {
			violate(InvDivergentStores, "after forced expiry: %v", err)
		}
	}

	res.Sent = int(sent.Load())
	res.Delivered = len(records)
	res.Crashes = int(crashes.Load())
	res.Retries = int(retries.Load())
	res.Detected = o.Detected()
	res.LeaderKills = int(leaderKills.Load())
	res.Takeovers = o.Takeovers()
	res.Recovery = o.RecoveryHist().Summarize()
	res.Fetch = o.FetchHist().Summarize()
	res.Elapsed = time.Since(start)
	trace("done: %s", res.OneLine())
	return res
}
