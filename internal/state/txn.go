package state

import (
	"sync"
)

// plock is a wound-wait transaction lock guarding one state partition.
//
// Wound-wait (as in the paper's §4.2, and classically Rosenkrantz et al.):
// when transaction T requests a lock held by U,
//   - if T is older (smaller timestamp), T *wounds* U — U aborts at its next
//     operation (or immediately if it is waiting) and T waits for release;
//   - if T is younger, T waits.
//
// Priorities never change, so the waits-for graph is acyclic and deadlock is
// impossible; wounded transactions retry with their original timestamp, so
// they eventually become oldest and win (no starvation).
type plock struct {
	mu      sync.Mutex
	owner   *lockTxn
	release chan struct{} // closed and replaced on every release
}

func (l *plock) init() {
	l.release = make(chan struct{})
}

// acquire takes the lock for t, blocking as needed. Returns ErrWounded if t
// was wounded while waiting.
func (l *plock) acquire(t *lockTxn) error {
	for {
		if t.isWounded() {
			return ErrWounded
		}
		l.mu.Lock()
		if l.owner == nil {
			l.owner = t
			l.mu.Unlock()
			return nil
		}
		if l.owner == t {
			l.mu.Unlock()
			return nil
		}
		if t.ts < l.owner.ts {
			l.owner.wound()
		}
		ch := l.release
		l.mu.Unlock()
		select {
		case <-ch:
		case <-t.woundChan():
			return ErrWounded
		}
	}
}

// unlock releases the lock if t owns it and wakes all waiters.
func (l *plock) unlock(t *lockTxn) {
	l.mu.Lock()
	if l.owner == t {
		l.owner = nil
		close(l.release)
		l.release = make(chan struct{})
	}
	l.mu.Unlock()
}

// lockTxn is an in-flight two-phase-locking packet transaction. Not safe
// for concurrent use by multiple goroutines — a packet is processed by one
// thread.
//
// The bookkeeping is sized for the data plane: packet transactions touch a
// handful of partitions, so the held set is a small slice (linear scan beats
// a map allocation), the write map is created on the first write, and the
// wound channel only materializes when a waiter or wounder needs it —
// an uncontended read-write transaction allocates just the txn itself.
type lockTxn struct {
	store *Store
	ts    uint64

	woundMu  sync.Mutex
	wounded  bool
	woundCh  chan struct{} // lazy: created by the first waiter or wound
	done     bool
	held     []uint16           // partitions locked (== partitions touched)
	heldArr  [4]uint16          // inline backing for held
	writes   map[string]*Update // latest write per key (lazy)
	writeLog []*Update          // program order, deduplicated by key
}

func newTxn(s *Store, ts uint64) *lockTxn {
	t := &lockTxn{store: s, ts: ts}
	t.held = t.heldArr[:0]
	return t
}

func (t *lockTxn) wound() {
	t.woundMu.Lock()
	if !t.wounded {
		t.wounded = true
		if t.woundCh != nil {
			close(t.woundCh)
		}
	}
	t.woundMu.Unlock()
}

func (t *lockTxn) isWounded() bool {
	t.woundMu.Lock()
	defer t.woundMu.Unlock()
	return t.wounded
}

// woundChan returns the channel a lock waiter selects on; it is closed (or
// already closed) once the transaction is wounded.
func (t *lockTxn) woundChan() chan struct{} {
	t.woundMu.Lock()
	if t.woundCh == nil {
		t.woundCh = make(chan struct{})
		if t.wounded {
			close(t.woundCh)
		}
	}
	ch := t.woundCh
	t.woundMu.Unlock()
	return ch
}

// lockPartition acquires the partition's transaction lock (idempotent).
func (t *lockTxn) lockPartition(p uint16) error {
	if t.done {
		return ErrTxnDone
	}
	for _, h := range t.held {
		if h == p {
			return nil
		}
	}
	if err := t.store.parts[p].lock.acquire(t); err != nil {
		return err
	}
	t.held = append(t.held, p)
	return nil
}

// Get reads a key within the transaction. The bool reports presence.
func (t *lockTxn) Get(key string) ([]byte, bool, error) { return t.read(key, true) }

// Peek implements KeyPlacer.
func (t *lockTxn) Peek(key string) ([]byte, bool, error) { return t.read(key, false) }

// read is Get, refreshing the key's TTL when refresh is set.
func (t *lockTxn) read(key string, refresh bool) ([]byte, bool, error) {
	p := t.store.PartitionOf(key)
	if err := t.lockPartition(p); err != nil {
		return nil, false, err
	}
	if w, ok := t.writes[key]; ok { // read-your-writes
		if w.Value == nil {
			return nil, false, nil
		}
		out := make([]byte, len(w.Value))
		copy(out, w.Value)
		return out, true, nil
	}
	part := &t.store.parts[p]
	part.mu.Lock()
	var now int64
	if refresh {
		now = t.store.exp.nowTick()
	}
	v, ok := part.tab.getRefresh(key, now)
	var out []byte
	if ok {
		out = make([]byte, len(v))
		copy(out, v) // copy out before releasing the partition mutex
	}
	part.mu.Unlock()
	return out, ok, nil
}

// PartitionOf implements KeyPlacer.
func (t *lockTxn) PartitionOf(key string) uint16 { return t.store.PartitionOf(key) }

// NumPartitions implements KeyPlacer.
func (t *lockTxn) NumPartitions() int { return len(t.store.parts) }

// DeleteExpired implements ExpiryTxn: it buffers a deletion only if key is
// still present with an elapsed TTL at now, so a refresh that raced the
// expiry collection wins.
func (t *lockTxn) DeleteExpired(key string, now int64) (bool, error) {
	cfg := t.store.exp
	if cfg == nil {
		return false, nil
	}
	p := t.store.PartitionOf(key)
	if err := t.lockPartition(p); err != nil {
		return false, err
	}
	if _, ok := t.writes[key]; ok {
		return false, nil // a buffered write in this txn supersedes expiry
	}
	part := &t.store.parts[p]
	part.mu.Lock()
	due := part.tab.expiredAt(key, cfg.ticksAt(now))
	part.mu.Unlock()
	if !due {
		return false, nil
	}
	return true, t.Delete(key)
}

// Put buffers a write; it becomes visible (and replicable) at commit.
func (t *lockTxn) Put(key string, val []byte) error {
	p := t.store.PartitionOf(key)
	if err := t.lockPartition(p); err != nil {
		return err
	}
	v := make([]byte, len(val))
	copy(v, val)
	if w, ok := t.writes[key]; ok {
		w.Value = v
		return nil
	}
	u := &Update{Key: key, Value: v, Partition: p}
	if t.writes == nil {
		t.writes = make(map[string]*Update, 4)
	}
	t.writes[key] = u
	t.writeLog = append(t.writeLog, u)
	return nil
}

// Delete buffers a deletion of key.
func (t *lockTxn) Delete(key string) error {
	p := t.store.PartitionOf(key)
	if err := t.lockPartition(p); err != nil {
		return err
	}
	if w, ok := t.writes[key]; ok {
		w.Value = nil
		return nil
	}
	u := &Update{Key: key, Value: nil, Partition: p}
	if t.writes == nil {
		t.writes = make(map[string]*Update, 4)
	}
	t.writes[key] = u
	t.writeLog = append(t.writeLog, u)
	return nil
}

// Timestamp exposes the wound-wait priority (useful in tests).
func (t *lockTxn) Timestamp() uint64 { return t.ts }

func (t *lockTxn) releaseAll() {
	for _, p := range t.held {
		t.store.parts[p].lock.unlock(t)
	}
	t.held = nil
	t.done = true
}

// commit applies buffered writes while locks are held, invokes the hook at
// the serialization point, then releases the locks.
func (t *lockTxn) commit(onCommit func(Result)) (Result, error) {
	if t.done {
		return Result{}, ErrTxnDone
	}
	// A wound that lands after the last lock acquisition is ignored: commit
	// never blocks, so completing cannot create a deadlock, and 2PL already
	// guarantees serializability. Only acquiring/waiting transactions abort.
	res := Result{ReadOnly: len(t.writeLog) == 0}
	now := t.store.exp.nowTick()
	for _, u := range t.writeLog {
		part := &t.store.parts[u.Partition]
		part.mu.Lock()
		if u.Value == nil {
			part.tab.del(u.Key)
		} else {
			// The old value is still installed here: classify before put.
			classifyDelta(t.store.delta, &part.tab, u)
			// u.Value stays exclusively the piggybacked update's: the table
			// copies it into a slot-owned buffer, so a later in-place
			// overwrite can never corrupt a retained log.
			part.tab.put(u.Key, u.Value, now)
		}
		part.mu.Unlock()
		res.Updates = append(res.Updates, *u)
	}
	// Every touch path locks its partition first, so held IS the touched set.
	res.Touched = make([]uint16, len(t.held))
	copy(res.Touched, t.held)
	sortU16(res.Touched)
	if onCommit != nil {
		onCommit(res)
	}
	t.releaseAll()
	return res, nil
}

func (t *lockTxn) abort() {
	if t.done {
		return
	}
	t.releaseAll()
}

func sortU16(s []uint16) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
