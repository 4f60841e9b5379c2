package core

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/ftsfc/ftc/internal/state"
)

// Follower is a replica of a middlebox's state at one of the f succeeding
// servers in its replication group (§5). It applies piggybacked state
// updates in dependency-vector order, keeps the MAX vector of what it has
// replicated in order, and buffers applied logs so it can serve repair
// requests from its own successor.
//
// Non-dependent transactions apply concurrently: a log only locks the
// partitions its vector names, so worker threads replicating disjoint
// transactions proceed in parallel (§4.3's multithreaded replication).
type Follower struct {
	mb    uint16
	store state.Backend
	buf   *logBuffer

	locks []sync.Mutex // per-partition apply locks; max[p] is guarded by locks[p]
	max   []uint64
	// cut fences out the generation a recovery is replacing: logs that
	// arrived in a generation below cut are refused. A recovery fetch sets
	// it under every apply lock, so no log of the old generation — in
	// flight, or parked on logs that died with a head — lands after the cut
	// the recovering replica restores.
	cut atomic.Uint32

	notifyMu sync.Mutex
	// notify is closed when MAX advances and lazily recreated by the next
	// waiter, so the in-order fast path (no one waiting) allocates nothing.
	notify chan struct{}
}

// ApplyOutcome reports what Apply did with a log.
type ApplyOutcome int

// Apply outcomes.
const (
	// Applied: the log was in order; updates installed, MAX advanced.
	Applied ApplyOutcome = iota
	// Duplicate: the log had already been applied (repair or recovery replay).
	Duplicate
	// Blocked: prior logs are missing; the caller must wait or repair.
	Blocked
	// Fenced: the log arrived in a generation a recovery is replacing
	// (see Follower.cut); its packet is stale.
	Fenced
)

// anyGen marks an apply that skips the lineage fence: logs replayed
// outside any packet generation (tests, WaitApply).
const anyGen = ^uint32(0)

// NewFollower creates a follower replica for middlebox mb.
func NewFollower(mb uint16, store state.Backend) *Follower {
	return &Follower{
		mb:    mb,
		store: store,
		buf:   newLogBuffer(),
		locks: make([]sync.Mutex, store.NumPartitions()),
		max:   make([]uint64, store.NumPartitions()),
	}
}

// MB returns the middlebox index this follower replicates.
func (f *Follower) MB() uint16 { return f.mb }

// Store returns the replica state store.
func (f *Follower) Store() state.Backend { return f.store }

// Buffer returns the follower's retransmission buffer.
func (f *Follower) Buffer() *logBuffer { return f.buf }

// lockVec acquires the apply locks for every partition in v (ascending, so
// concurrent Apply calls cannot deadlock).
func (f *Follower) lockVec(v SparseVec) {
	for _, e := range v {
		f.locks[e.Part].Lock()
	}
}

func (f *Follower) unlockVec(v SparseVec) {
	for _, e := range v {
		f.locks[e.Part].Unlock()
	}
}

// Apply attempts to apply one piggyback log. It never blocks: a log whose
// dependencies are unmet returns Blocked and the caller decides whether to
// wait (WaitApply) or request repair.
func (f *Follower) Apply(l Log) ApplyOutcome { return f.apply(l, anyGen, nil) }

// apply is Apply with an optional retransmission-buffer sink: when sink is
// non-nil, an installed log's retained copy is appended to *sink instead of
// the buffer, so burst workers can append a whole burst's logs under one
// buffer lock at the flush. MAX still advances here, atomically with the
// install — only the buffer append is deferred (repair requests racing the
// deferral retry within RepairEvery). gen is the generation the log arrived
// in, checked against the lineage fence under the apply locks.
func (f *Follower) apply(l Log, gen uint32, sink *[]Log) ApplyOutcome {
	if len(l.Vec) == 0 {
		return Applied // touched nothing; nothing to order or install
	}
	f.lockVec(l.Vec)
	defer f.unlockVec(l.Vec)
	if gen < f.cut.Load() {
		return Fenced
	}
	if l.Coalesced() {
		return f.applyCoalescedLocked(l, sink)
	}
	if l.Vec.SupersededBy(f.max) {
		return Duplicate
	}
	if !l.Vec.SatisfiedBy(f.max) {
		return Blocked
	}
	if l.Noop() {
		return Applied // dependencies met; nothing to install or advance
	}
	if l.Vec.SupersededByAny(f.max) {
		// Partially ahead can only mean a duplicate racing recovery state;
		// installing again would be idempotent but advancing is not needed.
		return Duplicate
	}
	// The decoder hands each update a freshly allocated value that nothing
	// mutates afterwards, so the store takes ownership instead of copying.
	f.store.ApplyOwned(l.Updates)
	l.Vec.AdvanceInto(f.max)
	// The log's Vec/Updates arrays may live in a per-worker decode scratch;
	// clone them before the retransmission buffer outlives the packet.
	if sink != nil {
		*sink = append(*sink, l.Retain())
	} else {
		f.buf.add(l.Retain())
	}
	f.wake()
	return Applied
}

// applyCoalescedLocked installs a burst-coalesced log (apply locks held).
// Vec holds the run's last sequence per partition and Base its first.
//
// Each partition applies INDEPENDENTLY: a run is an encoding artifact, not
// a transaction — the protocol's ordering constraint is per partition (the
// dependency vectors define nothing stronger), and a run's per-key updates
// are themselves per partition. Demanding the whole run apply atomically
// deadlocks: two workers' concurrently open runs can interleave on
// different partitions in opposite orders (run A covers part p before run
// C but part q after it), leaving each run waiting on the other's base.
// Per-partition application makes progress on every delivery; partitions
// left behind complete on a later resend or repair retransmission. Until
// they do the log reports Blocked, so the caller waits rather than treat
// the run as replicated: a tail that stripped a partly installed run
// would release its packet before the run's state was f+1 times copied.
//
// A partition whose MAX lands strictly inside the run (a recovery snapshot
// already holds a prefix of the run's writes — the head's vector advances
// per transaction, not per run) still applies when the updates carry full
// values: re-installing last-writer values is idempotent. A delta update
// would double-count there, so such a partition waits for the full-value
// form that repair serves from the predecessor's buffer.
//
// The retransmission buffer keeps only the partitions this delivery
// installed. A buffered log's partitions must all be in this follower's
// state: a recovery restores a new head from this store and buffer, and
// the new head resends its buffer as its own lineage's logs.
func (f *Follower) applyCoalescedLocked(l Log, sink *[]Log) ApplyOutcome {
	var upds []state.Update
	var kept []int // indices of the partitions installed here
	behind := false
	for i := range l.Vec {
		p, end, base := l.Vec[i].Part, l.Vec[i].Seq, l.Base[i].Seq
		switch {
		case f.max[p] > end:
			continue // this partition already past the run
		case f.max[p] < base:
			behind = true // earlier logs missing; leave for repair/resend
			continue
		case f.max[p] > base:
			// Mid-run: only idempotent full values may re-install.
			delta := false
			for j := range l.Updates {
				u := &l.Updates[j]
				if u.Partition == p && u.Value == nil && u.Flags&state.UpdateDelta != 0 {
					delta = true
					break
				}
			}
			if delta {
				behind = true
				continue
			}
		}
		for j := range l.Updates {
			if l.Updates[j].Partition == p {
				upds = append(upds, l.Updates[j])
			}
		}
		f.max[p] = end + 1
		kept = append(kept, i)
	}
	if len(kept) == 0 {
		if behind {
			return Blocked
		}
		return Duplicate
	}
	f.store.ApplyOwned(upds)
	buffered := l.Retain()
	if len(kept) < len(l.Vec) {
		buffered = Log{MB: l.MB, Flags: l.Flags, Updates: upds}
		for _, i := range kept {
			buffered.Vec = append(buffered.Vec, l.Vec[i])
			buffered.Base = append(buffered.Base, l.Base[i])
		}
	}
	if sink != nil {
		*sink = append(*sink, buffered)
	} else {
		f.buf.add(buffered)
	}
	f.wake()
	if behind {
		return Blocked
	}
	return Applied
}

// SupersededByAny reports whether any touched partition is already ahead.
func (v SparseVec) SupersededByAny(max []uint64) bool {
	for _, e := range v {
		if int(e.Part) < len(max) && max[e.Part] > e.Seq {
			return true
		}
	}
	return false
}

func (f *Follower) wake() {
	f.notifyMu.Lock()
	if f.notify != nil {
		close(f.notify)
		f.notify = nil
	}
	f.notifyMu.Unlock()
}

func (f *Follower) notifyCh() chan struct{} {
	f.notifyMu.Lock()
	defer f.notifyMu.Unlock()
	if f.notify == nil {
		f.notify = make(chan struct{})
	}
	return f.notify
}

// WaitApply applies l, blocking while its dependencies are unmet. Each time
// the wait exceeds repairEvery, onRepair is invoked (if non-nil) so the
// caller can fetch missing logs from the group predecessor; logs returned by
// repair should be fed through Apply by the callback. WaitApply gives up
// and reports false after deadline (zero means wait forever).
func (f *Follower) WaitApply(l Log, repairEvery time.Duration, onRepair func(), deadline time.Duration) bool {
	return f.waitApply(l, repairEvery, onRepair, deadline, nil, nil)
}

// parking adapts a blocked apply to the replica pipeline.
type parking struct {
	// gate is a read lock the caller holds (the head's fetch gate). It is
	// dropped while the apply is parked, after settle (if set) has put
	// the caller's work under the gate in order: a log whose predecessor
	// died with its head can wait for as long as the recovery takes, and
	// that recovery may need the gate to fetch this replica's head state.
	gate   *sync.RWMutex
	settle func()
	// gen and want abandon the wait once the chain generation moves on
	// from the one the log arrived in. A recovery restarts the dead head
	// from a follower's cut, so the logs the parked one depends on are
	// gone for good, and a new head's logs reusing their sequence numbers
	// would satisfy it wrongly.
	gen  *atomic.Uint32
	want uint32
}

// waitApply is WaitApply with an optional buffer sink (see apply) and
// parking behaviour (nil for none).
func (f *Follower) waitApply(l Log, repairEvery time.Duration, onRepair func(), deadline time.Duration, sink *[]Log, p *parking) bool {
	if f.apply(l, p.lineage(), sink) != Blocked {
		return true
	}
	return f.park(l, repairEvery, onRepair, deadline, sink, p) != Blocked
}

// lineage is the generation a parked log arrived in (anyGen without one).
func (p *parking) lineage() uint32 {
	if p == nil {
		return anyGen
	}
	return p.want
}

// park is waitApply's blocked path. It returns the final apply outcome, or
// Blocked once it gives up.
func (f *Follower) park(l Log, repairEvery time.Duration, onRepair func(), deadline time.Duration, sink *[]Log, p *parking) ApplyOutcome {
	gen := p.lineage()
	var elapsed time.Duration
	parked := false
	defer func() {
		if parked {
			p.gate.RLock()
		}
	}()
	for {
		ch := f.notifyCh()
		// Apply after taking the channel: an Apply that advanced MAX
		// between our last attempt and notifyCh would otherwise be missed.
		if out := f.apply(l, gen, sink); out != Blocked {
			return out
		}
		if p != nil && p.gate != nil && !parked {
			if p.settle != nil {
				p.settle()
			}
			p.gate.RUnlock()
			parked = true
		}
		wait := repairEvery
		if wait <= 0 {
			wait = 5 * time.Millisecond
		}
		t := time.NewTimer(wait)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			if onRepair != nil {
				onRepair()
			}
			elapsed += wait
			if deadline > 0 && elapsed >= deadline {
				return Blocked
			}
		}
		if p != nil && p.gen != nil && p.gen.Load() != p.want {
			return Blocked
		}
	}
}

// Max snapshots the follower's MAX dependency vector.
func (f *Follower) Max() []uint64 {
	for i := range f.locks {
		f.locks[i].Lock()
	}
	out := CloneDense(f.max)
	for i := len(f.locks) - 1; i >= 0; i-- {
		f.locks[i].Unlock()
	}
	return out
}

// Fetch atomically snapshots the follower's MAX vector, retransmission
// buffer and store under all apply locks. Recovery must ship a consistent
// cut: a MAX torn against the snapshot would make a delta update, or a
// multi-partition log racing the copy, double-apply or vanish at the
// recovered replica.
// From then on logs of generations up to gen, the source's, are refused
// (see cut): the recovery ends by moving the chain to a later generation,
// and what the refused packets carried that the lineage keeps is resent
// from the head's retransmission buffer in it.
func (f *Follower) Fetch(gen uint32) (max []uint64, logs []Log, snap []state.Update) {
	for i := range f.locks {
		f.locks[i].Lock()
	}
	if f.cut.Load() <= gen {
		f.cut.Store(gen + 1)
	}
	max = CloneDense(f.max)
	logs = f.buf.all()
	snap = f.store.Snapshot()
	for i := len(f.locks) - 1; i >= 0; i-- {
		f.locks[i].Unlock()
	}
	return max, logs, snap
}

// RestoreMax installs a MAX vector (recovery initialization).
func (f *Follower) RestoreMax(v []uint64) {
	for i := range f.locks {
		f.locks[i].Lock()
	}
	for i := range f.max {
		if i < len(v) {
			f.max[i] = v[i]
		} else {
			f.max[i] = 0
		}
	}
	for i := len(f.locks) - 1; i >= 0; i-- {
		f.locks[i].Unlock()
	}
	f.wake()
}

// Prune drops buffered logs covered by the commit vector.
func (f *Follower) Prune(commit []uint64) { f.buf.Prune(commit) }

// Missing returns buffered logs a peer with the given MAX still needs.
func (f *Follower) Missing(max []uint64) []Log { return f.buf.Missing(max) }
