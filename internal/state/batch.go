package state

import "errors"

// Batch amortizes transaction begin/commit cost across a burst of packet
// transactions executed by one worker goroutine (vector packet processing,
// DPDK-style). Transactions run through a batch have exactly the semantics
// of Backend.Exec — serializable, atomically committed, automatically
// re-executed on conflicts — but the engine may retain partition-level
// locks between consecutive transactions, so a burst of packets hitting
// the same partitions pays one acquisition instead of one per packet.
//
// A batch is owned by a single goroutine and is not safe for concurrent
// use. Flush MUST be called at every burst boundary: it releases any locks
// held across transactions so other workers (and non-transactional readers)
// are never starved between bursts. The batch remains usable after Flush.
// A batch that only ever sees Exec → Flush → Exec (burst size 1) behaves
// identically to calling Backend.Exec directly.
type Batch interface {
	// Exec runs fn as a packet transaction within the batch.
	Exec(fn func(tx Txn) error) (Result, error)
	// ExecWithHook is Exec with a commit hook at the serialization point.
	ExecWithHook(fn func(tx Txn) error, onCommit func(Result)) (Result, error)
	// Flush releases partition locks retained across transactions. Called
	// at burst boundaries; the batch remains usable afterwards.
	Flush()
}

// MaxBatchTxns bounds how many transactions a batch may commit before it
// flushes itself. With adaptive burst sizing a burst can reach hundreds of
// packets; the auto-flush caps how long one worker retains partition locks
// within such a burst, so contending workers and non-transactional readers
// are never starved for a whole jumbo burst. Flushing mid-burst is
// semantically free — Flush is legal at any point and every transaction has
// already committed when it runs.
const MaxBatchTxns = 64

// ---------------------------------------------------------------------------
// Wound-wait 2PL engine
// ---------------------------------------------------------------------------

// lockBatch is the Store's batch: a long-lived holder transaction keeps the
// partition locks acquired by the burst's transactions, and each Exec runs
// against a view that reuses already-held locks. The holder participates in
// wound-wait like any transaction — if an older transaction wounds it, the
// next acquisition (or the next Exec) releases everything and retries, so
// deadlock freedom is preserved.
type lockBatch struct {
	store *Store
	hold  *lockTxn  // lock holder persisting across Execs within a burst
	view  batchView // per-Exec scratch, reused
	execs int       // commits since the last flush (MaxBatchTxns cap)
}

// NewBatch returns a batch context for one worker's bursts of transactions.
func (s *Store) NewBatch() Batch {
	b := &lockBatch{store: s}
	b.hold = newTxn(s, s.tsCtr.Add(1))
	b.view.batch = b
	return b
}

// Exec implements Batch.
func (b *lockBatch) Exec(fn func(tx Txn) error) (Result, error) {
	return b.ExecWithHook(fn, nil)
}

// ExecWithHook implements Batch.
func (b *lockBatch) ExecWithHook(fn func(tx Txn) error, onCommit func(Result)) (Result, error) {
	retries := 0
	for {
		// A wound that landed while the holder sat on locks between packets
		// is honoured here: release everything and retry, exactly as Exec's
		// retry loop does, keeping the original timestamp so the wounded
		// holder eventually becomes oldest and wins.
		if b.hold.isWounded() {
			b.releaseHeld()
			b.clearWound()
		}
		v := &b.view
		v.reset()
		err := fn(v)
		if err == nil {
			res := v.commit(onCommit)
			res.Retries = retries
			b.execs++
			if b.execs >= MaxBatchTxns {
				b.Flush()
			}
			return res, nil
		}
		if errors.Is(err, ErrWounded) {
			b.releaseHeld()
			b.clearWound()
			retries++
			continue
		}
		// Voluntary abort: buffered writes die with the view; locks stay with
		// the holder until the burst flushes (harmless — effects were never
		// applied, and 2PL does not require early release).
		return Result{}, err
	}
}

// Flush implements Batch: release every held partition lock and start the
// next burst as a fresh wound-wait participant.
func (b *lockBatch) Flush() {
	b.execs = 0
	if len(b.hold.held) == 0 {
		return
	}
	b.releaseHeld()
	b.clearWound()
	// A fresh timestamp per burst keeps the holder from aging into a
	// permanent wound-everyone priority across bursts.
	b.hold.ts = b.store.tsCtr.Add(1)
}

// releaseHeld unlocks every partition the holder owns. After it returns no
// in-flight acquire can wound the holder (wounds happen under the plock
// mutex that unlock also takes), so the wound state can be reset safely.
func (b *lockBatch) releaseHeld() {
	h := b.hold
	for _, p := range h.held {
		b.store.parts[p].lock.unlock(h)
	}
	h.held = h.heldArr[:0]
}

func (b *lockBatch) clearWound() {
	h := b.hold
	h.woundMu.Lock()
	h.wounded = false
	h.woundCh = nil
	h.woundMu.Unlock()
}

// batchView is one transaction's state inside a lockBatch: its own touched
// set, read-your-writes buffer, and write log, while lock ownership lives
// with the batch holder. Reused across Execs by the owning worker.
//
// Two pieces of per-packet garbage are recycled here. Reads return slices
// of a per-view arena (valid until the next operation on the transaction —
// middleboxes consume values before their next state call), so the steady
// Get path allocates nothing. Update structs come from a slab whose entries
// are reused across Execs; only the value buffers are freshly allocated,
// because committed updates are retained by the replication log.
type batchView struct {
	batch    *lockBatch
	touched  []uint16
	touchArr [4]uint16
	writes   map[string]*Update // latest write per key (lazy)
	writeLog []*Update          // program order, deduplicated by key
	upool    []Update           // Update slab; writeLog points into it
	unext    int                // next free slab entry
	rbuf     []byte             // read arena: holds the last Get's bytes
}

func (v *batchView) reset() {
	v.touched = v.touchArr[:0]
	if len(v.writeLog) > 0 {
		clear(v.writes)
		v.writeLog = v.writeLog[:0]
	}
	if v.unext == len(v.upool) {
		// The slab filled up (or is new): grow it now, between transactions,
		// when no writeLog pointers into the old backing array survive.
		n := 2 * len(v.upool)
		if n < 8 {
			n = 8
		}
		v.upool = make([]Update, n)
	}
	v.unext = 0
}

// bufferWrite records a write of key (val == nil deletes), deduplicating by
// key and drawing Update structs from the slab.
func (v *batchView) bufferWrite(key string, val []byte, p uint16) {
	if w, ok := v.writes[key]; ok {
		w.Value = val
		return
	}
	var u *Update
	if v.unext < len(v.upool) {
		u = &v.upool[v.unext]
		v.unext++
	} else {
		u = new(Update) // slab exhausted mid-Exec; reset resizes for the next
	}
	// Slab entries are reused across Execs: clear the commit-time delta
	// classification a previous transaction may have left behind.
	u.Key, u.Value, u.Partition, u.Flags, u.Delta = key, val, p, 0, 0
	if v.writes == nil {
		v.writes = make(map[string]*Update, 4)
	}
	v.writes[key] = u
	v.writeLog = append(v.writeLog, u)
}

// lockPartition ensures the batch holder owns partition p and records it in
// this transaction's touched set. Partitions already held by the burst are
// free; new ones go through the ordinary wound-wait acquisition.
func (v *batchView) lockPartition(p uint16) error {
	for _, t := range v.touched {
		if t == p {
			return nil
		}
	}
	h := v.batch.hold
	held := false
	for _, hp := range h.held {
		if hp == p {
			held = true
			break
		}
	}
	if !held {
		if err := v.batch.store.parts[p].lock.acquire(h); err != nil {
			return err
		}
		h.held = append(h.held, p)
	}
	v.touched = append(v.touched, p)
	return nil
}

// Get reads a key within the batched transaction. The returned slice is a
// view into the transaction's read arena: it stays valid only until the
// next operation on this transaction. Callers needing the bytes longer must
// copy (ordinary middlebox code decodes the value immediately).
func (v *batchView) Get(key string) ([]byte, bool, error) { return v.read(key, true) }

// Peek implements KeyPlacer.
func (v *batchView) Peek(key string) ([]byte, bool, error) { return v.read(key, false) }

// read is Get, refreshing the key's TTL when refresh is set.
func (v *batchView) read(key string, refresh bool) ([]byte, bool, error) {
	p := v.batch.store.PartitionOf(key)
	if err := v.lockPartition(p); err != nil {
		return nil, false, err
	}
	if w, ok := v.writes[key]; ok { // read-your-writes
		if w.Value == nil {
			return nil, false, nil
		}
		return v.arena(w.Value), true, nil
	}
	part := &v.batch.store.parts[p]
	part.mu.Lock()
	var now int64
	if refresh {
		now = v.batch.store.exp.nowTick()
	}
	val, ok := part.tab.getRefresh(key, now)
	var out []byte
	if ok {
		out = v.arena(val) // copy out while the mutex protects the buffer
	}
	part.mu.Unlock()
	return out, ok, nil
}

// PartitionOf implements KeyPlacer.
func (v *batchView) PartitionOf(key string) uint16 { return v.batch.store.PartitionOf(key) }

// NumPartitions implements KeyPlacer.
func (v *batchView) NumPartitions() int { return len(v.batch.store.parts) }

// arena copies val into the view's read buffer and returns the copy.
func (v *batchView) arena(val []byte) []byte {
	if v.rbuf == nil {
		v.rbuf = make([]byte, 0, 128)
	}
	v.rbuf = append(v.rbuf[:0], val...)
	return v.rbuf
}

// Put buffers a write, visible at commit.
func (v *batchView) Put(key string, val []byte) error {
	p := v.batch.store.PartitionOf(key)
	if err := v.lockPartition(p); err != nil {
		return err
	}
	// The value buffer must be fresh — the committed update outlives this
	// transaction inside the replication log.
	buf := make([]byte, len(val))
	copy(buf, val)
	v.bufferWrite(key, buf, p)
	return nil
}

// Delete buffers a deletion.
func (v *batchView) Delete(key string) error {
	p := v.batch.store.PartitionOf(key)
	if err := v.lockPartition(p); err != nil {
		return err
	}
	v.bufferWrite(key, nil, p)
	return nil
}

// DeleteExpired implements ExpiryTxn for batched transactions (see
// lockTxn.DeleteExpired).
func (v *batchView) DeleteExpired(key string, now int64) (bool, error) {
	cfg := v.batch.store.exp
	if cfg == nil {
		return false, nil
	}
	p := v.batch.store.PartitionOf(key)
	if err := v.lockPartition(p); err != nil {
		return false, err
	}
	if _, ok := v.writes[key]; ok {
		return false, nil // a buffered write in this txn supersedes expiry
	}
	part := &v.batch.store.parts[p]
	part.mu.Lock()
	due := part.tab.expiredAt(key, cfg.ticksAt(now))
	part.mu.Unlock()
	if !due {
		return false, nil
	}
	return true, v.Delete(key)
}

// commit applies the buffered writes while the holder's locks are held and
// invokes the hook at the serialization point. Locks are NOT released —
// that is the batch's whole point; Flush returns them at the burst boundary.
func (v *batchView) commit(onCommit func(Result)) Result {
	res := Result{ReadOnly: len(v.writeLog) == 0}
	now := v.batch.store.exp.nowTick()
	for _, u := range v.writeLog {
		part := &v.batch.store.parts[u.Partition]
		part.mu.Lock()
		if u.Value == nil {
			part.tab.del(u.Key)
		} else {
			// The old value is still installed here: classify before put.
			classifyDelta(v.batch.store.delta, &part.tab, u)
			// u.Value stays exclusively the piggybacked update's; the table
			// keeps its own copy in a recycled slot buffer.
			part.tab.put(u.Key, u.Value, now)
		}
		part.mu.Unlock()
		res.Updates = append(res.Updates, *u)
	}
	res.Touched = make([]uint16, len(v.touched))
	copy(res.Touched, v.touched)
	sortU16(res.Touched)
	if onCommit != nil {
		onCommit(res)
	}
	return res
}

// ---------------------------------------------------------------------------
// Optimistic (OCC) engine
// ---------------------------------------------------------------------------

// occBatch is the OCCStore's batch: the partition mutexes taken at the last
// commit stay held across transactions, so a burst of commits touching the
// same partitions validates and installs without re-locking. Whenever the
// touched set changes, every held mutex is released before the new set is
// acquired in ascending order — acquisition always starts from zero, so two
// batches can never hold-and-wait on each other.
type occBatch struct {
	store *OCCStore
	held  []uint16 // partitions whose mu is currently held, ascending
	execs int      // commits since the last flush (MaxBatchTxns cap)
}

// NewBatch returns a batch context for one worker's bursts of transactions.
func (s *OCCStore) NewBatch() Batch {
	return &occBatch{store: s}
}

func (b *occBatch) holds(p uint16) bool {
	for _, h := range b.held {
		if h == p {
			return true
		}
	}
	return false
}

// Exec implements Batch.
func (b *occBatch) Exec(fn func(tx Txn) error) (Result, error) {
	return b.ExecWithHook(fn, nil)
}

// ExecWithHook implements Batch: Exec's optimistic retry loop with
// batch-aware reads and commit.
func (b *occBatch) ExecWithHook(fn func(tx Txn) error, onCommit func(Result)) (Result, error) {
	retries := 0
	for {
		tx := newOCCTxn(b.store)
		tx.batch = b
		if err := fn(tx); err != nil {
			if errors.Is(err, ErrConflict) {
				retries++
				continue
			}
			return Result{}, err
		}
		res, err := tx.commitBatch(b, onCommit)
		if errors.Is(err, ErrConflict) {
			retries++
			continue
		}
		res.Retries = retries
		if err == nil {
			b.execs++
			if b.execs >= MaxBatchTxns {
				b.Flush()
			}
		}
		return res, err
	}
}

// Flush implements Batch: release the partition mutexes held since the last
// commit.
func (b *occBatch) Flush() {
	b.execs = 0
	for i := len(b.held) - 1; i >= 0; i-- {
		b.store.parts[b.held[i]].mu.Unlock()
	}
	b.held = b.held[:0]
}

// commitBatch validates and installs like occTxn.commit, but reuses the
// mutexes the batch already holds when the touched set allows it, and keeps
// the touched set's mutexes held for the next transaction in the burst.
func (t *occTxn) commitBatch(b *occBatch, onCommit func(Result)) (Result, error) {
	parts := make([]uint16, 0, len(t.touched))
	for p := range t.touched {
		parts = append(parts, p)
	}
	sortU16(parts)

	same := len(parts) <= len(b.held)
	if same {
		for _, p := range parts {
			if !b.holds(p) {
				same = false
				break
			}
		}
	}
	if !same {
		// Touched set changed: release everything, then acquire the new set
		// ascending from zero. Reads made before the acquisition are still
		// guarded by the validation below.
		b.Flush()
		for _, p := range parts {
			t.store.parts[p].mu.Lock()
		}
		b.held = append(b.held[:0], parts...)
	}

	// Validate: every read key must still be at the observed version.
	for key, ver := range t.reads {
		p := &t.store.parts[t.store.PartitionOf(key)]
		cur := uint64(0)
		if si := p.tab.getSlot(key); si >= 0 {
			cur = p.tab.slots[si].ver
		}
		if cur != ver {
			// Locks stay with the batch: the retry re-reads under the same
			// held set and validates again.
			return Result{}, ErrConflict
		}
	}
	res := Result{ReadOnly: len(t.writeLog) == 0, Touched: parts}
	now := t.store.exp.nowTick()
	for _, u := range t.writeLog {
		p := &t.store.parts[u.Partition]
		if u.Value == nil {
			p.tab.del(u.Key)
		} else {
			// The old value is still installed here: classify before put.
			classifyDelta(t.store.delta, &p.tab, u)
			si := p.tab.put(u.Key, u.Value, now)
			p.tab.slots[si].ver++
		}
		p.version++
		res.Updates = append(res.Updates, *u)
	}
	if onCommit != nil {
		onCommit(res)
	}
	return res, nil
}

// compile-time checks: both engines provide batches, and the views satisfy
// the transaction interface plus the ExpiryTxn extension.
var (
	_ Batch     = (*lockBatch)(nil)
	_ Batch     = (*occBatch)(nil)
	_ Txn       = (*batchView)(nil)
	_ ExpiryTxn = (*batchView)(nil)
)
