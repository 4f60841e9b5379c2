package orch

import (
	"fmt"
	"sync"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/metrics"
	"github.com/ftsfc/ftc/internal/netsim"
)

// Ensemble is the orchestrator: Members fabric nodes running leader
// election over a shared command log. The leader owns heartbeats, failure
// detection, and recovery execution; every recovery step is replicated
// before it acts, so when the leader dies a follower takes over and
// resumes — not restarts — whatever was mid-flight. Fencing terms
// (Chain.FenceController plus the replicas' control-RPC terms) make the
// deposed leader's stale commands harmless. An ensemble of one is the
// paper's single controller: it runs the same logged, fenced recovery
// driver with no peers to replicate to.
type Ensemble struct {
	cfg    Config
	fabric *netsim.Fabric
	chain  *core.Chain

	members []*Member

	mu      sync.Mutex
	reports []RecoveryReport

	stopOnce sync.Once

	detected  metrics.Counter
	takeovers metrics.Counter
	recHist   *metrics.Histogram
	fetchHist *metrics.Histogram

	// OnRecovery, if set, is called after each recovery attempt.
	OnRecovery func(RecoveryReport)
	// OnPhase, if set, is called synchronously at each recovery sub-step
	// (see Phase). Fault-injection harnesses hook it to crash replicas —
	// or the leader itself — in the middle of a recovery; it must not
	// block for long, since it runs on the recovery path and extends the
	// measured phase timings.
	OnPhase func(PhaseEvent)
	// OnLeader, if set, is called synchronously when a member completes a
	// takeover (after the election record replicated and the chain was
	// fenced, before orphaned recoveries resume). The chaos harness hooks
	// it to kill the new leader during takeover.
	OnLeader func(term uint64, member int)
}

// NewEnsemble creates cfg.Members orchestrator nodes named base-m0,
// base-m1, ... on the fabric. Member 0 leads at term 1 once Start is
// called; later terms are won by election.
func NewEnsemble(cfg Config, fabric *netsim.Fabric, base netsim.NodeID, chain *core.Chain) *Ensemble {
	cfg = cfg.WithDefaults()
	e := &Ensemble{
		cfg:       cfg,
		fabric:    fabric,
		chain:     chain,
		recHist:   metrics.NewHistogram(),
		fetchHist: metrics.NewHistogram(),
	}
	for i := 0; i < cfg.Members; i++ {
		m := &Member{
			ens:     e,
			rank:    i,
			node:    fabric.AddNode(netsim.NodeID(fmt.Sprintf("%s-m%d", base, i)), netsim.NodeConfig{}),
			stopped: make(chan struct{}),
		}
		m.register()
		e.members = append(e.members, m)
	}
	return e
}

// Members returns the ensemble members (stable ranks).
func (e *Ensemble) Members() []*Member { return append([]*Member(nil), e.members...) }

// Start launches the ensemble: member 0 takes term 1 deterministically
// (no cold-start election), the rest follow.
func (e *Ensemble) Start() {
	now := time.Now()
	for _, m := range e.members {
		m.mu.Lock()
		m.leaseAt = now
		m.mu.Unlock()
	}
	// Member 0 has seen and voted for term 1, so the stint's first
	// replicate finds its own term current.
	m0 := e.members[0]
	m0.mu.Lock()
	if m0.term == 0 {
		m0.term, m0.granted = 1, 1
	}
	m0.mu.Unlock()
	for _, m := range e.members {
		m.wg.Add(1)
		go m.run()
	}
	e.members[0].becomeLeader(1)
}

// Stop terminates every member and joins all their goroutines, including
// any leader stint's monitors — the regression target for the
// crashed-orchestrator goroutine-leak audit.
func (e *Ensemble) Stop() {
	e.stopOnce.Do(func() {
		for _, m := range e.members {
			if ls := m.currentStint(); ls != nil {
				ls.depose()
			}
			m.stopOnce.Do(func() { close(m.stopped) })
		}
		for _, m := range e.members {
			m.wg.Wait()
		}
	})
}

// Leader returns the rank and term of the current leader, or (-1, 0) if
// no member is leading right now (e.g. mid-election).
func (e *Ensemble) Leader() (int, uint64) {
	for _, m := range e.members {
		if ls := m.currentStint(); ls != nil {
			return m.rank, ls.term
		}
	}
	return -1, 0
}

// leaderMember returns the leading member, if any.
func (e *Ensemble) leaderMember() *Member {
	for _, m := range e.members {
		if m.currentStint() != nil {
			return m
		}
	}
	return nil
}

// CrashLeader fail-stops the current leader, returning its rank or -1 if
// no leader was up. The chaos harness's mid-recovery rider calls this from
// inside OnPhase, on the leader's own recovery goroutine — Crash only
// signals, so that is safe.
func (e *Ensemble) CrashLeader() int {
	m := e.leaderMember()
	if m == nil {
		return -1
	}
	m.Crash()
	return m.rank
}

// CrashMember fail-stops member rank.
func (e *Ensemble) CrashMember(rank int) {
	if rank >= 0 && rank < len(e.members) {
		e.members[rank].Crash()
	}
}

// NodeID returns a usable control-plane source node: the current leader's
// if one is up, else the first alive member's, else member 0's. Fleet uses
// it as the heartbeat source for its own liveness probes.
func (e *Ensemble) NodeID() netsim.NodeID {
	if m := e.leaderMember(); m != nil {
		return m.node.ID()
	}
	for _, m := range e.members {
		if !m.crashed.Load() {
			return m.node.ID()
		}
	}
	return e.members[0].node.ID()
}

// Detected reports how many failures the (current and past) leaders'
// heartbeat detectors declared.
func (e *Ensemble) Detected() uint64 { return e.detected.Value() }

// Takeovers counts completed leadership changes, including the initial
// term-1 installation.
func (e *Ensemble) Takeovers() uint64 { return e.takeovers.Value() }

// RecoveryHist is the histogram of total recovery times across successful
// recoveries.
func (e *Ensemble) RecoveryHist() *metrics.Histogram { return e.recHist }

// FetchHist is the histogram of state-fetch times across successful
// recoveries.
func (e *Ensemble) FetchHist() *metrics.Histogram { return e.fetchHist }

// Reports returns the recovery reports so far.
func (e *Ensemble) Reports() []RecoveryReport {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]RecoveryReport(nil), e.reports...)
}

// Log returns the authoritative committed command log: the current
// leader's if one is up, else the longest log among alive members, else
// the longest overall. Post-quiescence audits replay it.
func (e *Ensemble) Log() []Entry {
	if m := e.leaderMember(); m != nil {
		return m.Log()
	}
	var best []Entry
	for _, m := range e.members {
		if m.crashed.Load() {
			continue
		}
		if l := m.Log(); len(l) > len(best) {
			best = l
		}
	}
	if best == nil {
		for _, m := range e.members {
			if l := m.Log(); len(l) > len(best) {
				best = l
			}
		}
	}
	return best
}

// View replays the authoritative log.
func (e *Ensemble) View() LogView { return Replay(e.Log()) }

// Recover runs (or joins) a recovery for ring position idx and returns its
// report. If the heartbeat detector is already recovering idx, Recover
// waits for that recovery's report. The driving leader may die mid-way;
// Recover then waits for the successor to resume and finish the job, up
// to one RecoveryTimeout per ensemble member. Recover needs a leader, so
// call Start first.
func (e *Ensemble) Recover(idx int) RecoveryReport {
	members := len(e.members)
	if members < 1 {
		members = 1
	}
	deadline := time.Now().Add(e.cfg.RecoveryTimeout * time.Duration(members))
	e.mu.Lock()
	from := len(e.reports)
	e.mu.Unlock()
	for {
		// Reports first: a successor resuming the recovery may already have
		// finished it, and a direct call below would then start a fresh,
		// redundant epoch against an already-healthy ring.
		if rep, ok := e.reportAfter(idx, from); ok {
			return rep
		}
		if m := e.leaderMember(); m != nil {
			if ls := m.currentStint(); ls != nil {
				rep, err := ls.recoverPosition(idx)
				if err == nil {
					return rep
				}
				// errBusy or a mid-flight depose: fall through and wait
				// for whoever finishes it to record a report.
			}
		}
		if rep, ok := e.reportAfter(idx, from); ok {
			return rep
		}
		if time.Now().After(deadline) {
			return RecoveryReport{RingIndex: idx, Err: fmt.Errorf("orch: ensemble timed out recovering position %d", idx)}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// reportAfter scans for a report for idx recorded at or after position
// from.
func (e *Ensemble) reportAfter(idx, from int) (RecoveryReport, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := from; i < len(e.reports); i++ {
		if e.reports[i].RingIndex == idx {
			return e.reports[i], true
		}
	}
	return RecoveryReport{}, false
}

func (e *Ensemble) noteLeader(term uint64, member int) {
	e.takeovers.Inc()
	if e.OnLeader != nil {
		e.OnLeader(term, member)
	}
}

func (e *Ensemble) phase(ev PhaseEvent) {
	if e.OnPhase != nil {
		e.OnPhase(ev)
	}
}

func (e *Ensemble) record(rep RecoveryReport) {
	if rep.Err == nil {
		e.recHist.Record(rep.Total)
		e.fetchHist.Record(rep.StateFetch)
	}
	e.mu.Lock()
	e.reports = append(e.reports, rep)
	e.mu.Unlock()
	if e.OnRecovery != nil {
		e.OnRecovery(rep)
	}
}
