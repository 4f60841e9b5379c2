package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"syscall"
	"unsafe"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// Tracing: the traced run wraps every middlebox and every state store the
// chain builds, records spans in memory at each layer boundary and writes
// them out when the run ends. Spans of one packet share its tgen sequence
// number as request id; one request in sampleMask+1 is recorded, while the
// counters below see every call.

type spanKind uint8

const (
	kSend     spanKind = iota + 1 // generator hands a chunk to the fabric
	kProcess                      // one Middlebox.Process call
	kExec                         // one head packet transaction (Exec), parent of its Process calls
	kApply                        // one follower ApplyOwned/Apply call
	kSnapshot                     // state snapshot served to a recovering replica
	kRestore                      // state restored into a recovering replica
	kRecover                      // crash to orchestrator Recover returning
	kArrive                       // packet reaches the sink
)

var kindNames = [...]string{"", "gen.send", "mbox.process", "state.exec", "state.apply",
	"state.snapshot", "state.restore", "orch.recover", "sink.arrive"}

// span is one traced interval on the run clock. parent is the slot (index
// plus one) of the span that caused it, 0 for none.
type span struct {
	rid    uint64
	start  int64
	end    int64
	self   int64 // state.exec: duration minus the child Process calls
	kind   spanKind
	mb     uint8  // middlebox index (process, exec)
	n      uint16 // state.exec: Process calls; state.apply: updates
	parent uint32
}

const (
	sampleMask = 15 // record requests whose id is a multiple of 16
	spanCap    = 1 << 21
)

type tracer struct {
	clk     clock
	spans   []span
	mem     []byte
	n       atomic.Uint64 // slots handed out
	dropped atomic.Uint64 // spans lost to a full arena
	mbNames []string

	procCalls    atomic.Uint64 // Middlebox.Process calls
	pktExecs     atomic.Uint64 // head transactions that ran a Process call
	applyCalls   atomic.Uint64
	applyUpdates atomic.Uint64
	expired      atomic.Uint64 // keys deleted by committed expiry transactions
	headUpdates  atomic.Uint64 // updates committed by head packet transactions
	deltaUpdates atomic.Uint64 // of those, updates classified as counter deltas
}

func newTracer(clk clock) (*tracer, error) {
	size := spanCap * int(unsafe.Sizeof(span{}))
	m, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("mapping span arena: %w", err)
	}
	return &tracer{clk: clk, mem: m, spans: unsafe.Slice((*span)(unsafe.Pointer(&m[0])), spanCap)}, nil
}

func (t *tracer) free() {
	_ = syscall.Munmap(t.mem) // nothing to do about a failed unmap at exit
	t.spans = nil
}

func (t *tracer) sampled(rid uint64) bool { return rid != 0 && rid&sampleMask == 0 }

// reserve hands out a span slot, 0 when the arena is full.
func (t *tracer) reserve() uint32 {
	i := t.n.Add(1)
	if i > spanCap {
		t.dropped.Add(1)
		return 0
	}
	return uint32(i)
}

func (t *tracer) put(slot uint32, s span) {
	if slot != 0 {
		t.spans[slot-1] = s
	}
}

func (t *tracer) record(s span) { t.put(t.reserve(), s) }

// recorded returns the spans written so far. Call it only once every
// goroutine that records has stopped.
func (t *tracer) recorded() []span {
	n := min(t.n.Load(), spanCap)
	return t.spans[:n]
}

// write stores the spans as tab-separated lines: id, parent, name, request
// id, start and end (ns on the run clock), and the span's count field.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\trid\tstart_ns\tend_ns\tcount")
	for i, s := range t.recorded() {
		if s.kind == 0 {
			continue
		}
		name := kindNames[s.kind]
		if s.kind == kProcess || s.kind == kExec {
			name += "/" + t.mbNames[s.mb]
		}
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", i+1, s.parent, name, s.rid, s.start, s.end, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wrapMB returns mb wrapped in a timing shim that forwards every optional
// middlebox interface the chain consults.
func (t *tracer) wrapMB(mb core.Middlebox) core.Middlebox {
	t.mbNames = append(t.mbNames, mb.Name())
	return &tracedMB{inner: mb, t: t, idx: uint8(len(t.mbNames) - 1)}
}

type tracedMB struct {
	inner core.Middlebox
	t     *tracer
	idx   uint8
}

func (m *tracedMB) Name() string { return m.inner.Name() }

// Process times the wrapped middlebox and hands it the engine's own
// transaction, unwrapped.
func (m *tracedMB) Process(pkt *wire.Packet, tx state.Txn) (core.Verdict, error) {
	var rec *execRec
	switch w := tx.(type) {
	case *tracedTx:
		rec, tx = w.rec, w.Txn
	case *tracedExpiryTx:
		rec, tx = w.rec, w.Txn
	}
	rid := payloadSeq(pkt) // before Process: a NAT rewrites headers, never the payload
	start := m.t.clk.now()
	v, err := m.inner.Process(pkt, tx)
	end := m.t.clk.now()
	m.t.procCalls.Add(1)
	var parent uint32
	if rec != nil {
		rec.rid, rec.mb = rid, m.idx
		rec.procs++
		rec.procNs += end - start
		if rec.slot == 0 && m.t.sampled(rid) {
			rec.slot = m.t.reserve()
		}
		parent = rec.slot
	}
	if m.t.sampled(rid) {
		m.t.record(span{rid: rid, kind: kProcess, start: start, end: end, mb: m.idx, parent: parent})
	}
	return v, err
}

// FlowTTLPrefixes forwards core.FlowTTLer; nil keeps aging off, as for a
// middlebox without the extension.
func (m *tracedMB) FlowTTLPrefixes() []string {
	if f, ok := m.inner.(core.FlowTTLer); ok {
		return f.FlowTTLPrefixes()
	}
	return nil
}

// DeltaPrefixes forwards core.DeltaPrefixer; nil means no delta encoding.
func (m *tracedMB) DeltaPrefixes() []string {
	if d, ok := m.inner.(core.DeltaPrefixer); ok {
		return d.DeltaPrefixes()
	}
	return nil
}

// CarrierCost forwards core.CarrierCoster; 1 is the chain's default cost.
func (m *tracedMB) CarrierCost() float64 {
	if c, ok := m.inner.(core.CarrierCoster); ok {
		return c.CarrierCost()
	}
	return 1
}

// wrapStore wraps a state backend in timing shims for Exec, Apply,
// Snapshot and Restore; every other method is the backend's own.
func (t *tracer) wrapStore(b state.Backend) state.Backend { return &tracedStore{Backend: b, t: t} }

type tracedStore struct {
	state.Backend
	t *tracer
}

func (s *tracedStore) NewBatch() state.Batch {
	b := &tracedBatch{inner: s.Backend.NewBatch()}
	b.x.init(s.t)
	return b
}

func (s *tracedStore) Exec(fn func(tx state.Txn) error) (state.Result, error) {
	x := newTxnRun(s.t, fn)
	start := s.t.clk.now()
	res, err := s.Backend.Exec(x.call)
	x.finish(start, res, err)
	return res, err
}

func (s *tracedStore) ExecWithHook(fn func(tx state.Txn) error, onCommit func(state.Result)) (state.Result, error) {
	x := newTxnRun(s.t, fn)
	start := s.t.clk.now()
	res, err := s.Backend.ExecWithHook(x.call, onCommit)
	x.finish(start, res, err)
	return res, err
}

func (s *tracedStore) Apply(u []state.Update) {
	start := s.t.clk.now()
	s.Backend.Apply(u)
	s.applied(start, len(u))
}

func (s *tracedStore) ApplyOwned(u []state.Update) {
	start := s.t.clk.now()
	s.Backend.ApplyOwned(u)
	s.applied(start, len(u))
}

func (s *tracedStore) applied(start int64, updates int) {
	end := s.t.clk.now()
	c := s.t.applyCalls.Add(1)
	s.t.applyUpdates.Add(uint64(updates))
	if c&sampleMask == 0 {
		s.t.record(span{kind: kApply, start: start, end: end, n: uint16(min(updates, 1<<16-1))})
	}
}

func (s *tracedStore) Snapshot() []state.Update {
	start := s.t.clk.now()
	u := s.Backend.Snapshot()
	s.t.record(span{kind: kSnapshot, start: start, end: s.t.clk.now(), n: uint16(min(len(u), 1<<16-1))})
	return u
}

func (s *tracedStore) Restore(u []state.Update) {
	start := s.t.clk.now()
	s.Backend.Restore(u)
	s.t.record(span{kind: kRestore, start: start, end: s.t.clk.now(), n: uint16(min(len(u), 1<<16-1))})
}

type tracedBatch struct {
	inner state.Batch
	x     txnRun
}

func (b *tracedBatch) Exec(fn func(tx state.Txn) error) (state.Result, error) {
	b.x.fn = fn
	start := b.x.t.clk.now()
	res, err := b.inner.Exec(b.x.call)
	b.x.finish(start, res, err)
	return res, err
}

func (b *tracedBatch) ExecWithHook(fn func(tx state.Txn) error, onCommit func(state.Result)) (state.Result, error) {
	b.x.fn = fn
	start := b.x.t.clk.now()
	res, err := b.inner.ExecWithHook(b.x.call, onCommit)
	b.x.finish(start, res, err)
	return res, err
}

func (b *tracedBatch) Flush() { b.inner.Flush() }

// execRec is what the Process shims report to the transaction around them.
type execRec struct {
	rid     uint64
	procNs  int64
	procs   int
	expired int
	slot    uint32
	mb      uint8
}

// txnRun times one transaction at a time. A batch owns one for its whole
// life (batches are single-goroutine); store-level transactions get a fresh
// one per call.
type txnRun struct {
	t    *tracer
	fn   func(tx state.Txn) error
	call func(tx state.Txn) error // x.run, bound once
	rec  execRec
	tx   tracedTx
	etx  tracedExpiryTx
}

func newTxnRun(t *tracer, fn func(tx state.Txn) error) *txnRun {
	x := &txnRun{fn: fn}
	x.init(t)
	return x
}

func (x *txnRun) init(t *tracer) {
	x.t = t
	x.call = x.run
}

// run is the transaction body handed to the engine: it wraps the engine's
// transaction so the Process shim can report into rec, and forwards
// state.ExpiryTxn when the engine's transaction has it.
func (x *txnRun) run(tx state.Txn) error {
	x.rec.expired = 0 // a wounded attempt's deletions do not count
	if _, ok := tx.(state.ExpiryTxn); ok {
		x.etx.Txn, x.etx.rec = tx, &x.rec
		return x.fn(&x.etx)
	}
	x.tx.Txn, x.tx.rec = tx, &x.rec
	return x.fn(&x.tx)
}

func (x *txnRun) finish(start int64, res state.Result, err error) {
	end := x.t.clk.now()
	r := &x.rec
	if r.procs > 0 {
		x.t.pktExecs.Add(1)
		if err == nil {
			deltas := 0
			for _, u := range res.Updates {
				if u.Flags&state.UpdateDelta != 0 {
					deltas++
				}
			}
			x.t.headUpdates.Add(uint64(len(res.Updates)))
			x.t.deltaUpdates.Add(uint64(deltas))
		}
		x.t.put(r.slot, span{rid: r.rid, kind: kExec, start: start, end: end,
			self: end - start - r.procNs, mb: r.mb, n: uint16(min(r.procs, 1<<16-1))})
	} else if err == nil && r.expired > 0 {
		x.t.expired.Add(uint64(r.expired))
	}
	*r = execRec{}
	x.fn = nil
}

// tracedTx is the transaction the wrapped middlebox chain sees; its Process
// shim unwraps it again.
type tracedTx struct {
	state.Txn
	rec *execRec
}

// tracedExpiryTx is tracedTx over an engine transaction that implements
// state.ExpiryTxn, so the replica's expiry driver keeps its re-validating
// delete instead of falling back to blind deletes.
type tracedExpiryTx struct {
	tracedTx
}

func (t *tracedExpiryTx) DeleteExpired(key string, now int64) (bool, error) {
	ok, err := t.Txn.(state.ExpiryTxn).DeleteExpired(key, now)
	if ok {
		t.rec.expired++
	}
	return ok, err
}
