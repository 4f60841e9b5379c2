// Package state implements FTC's middlebox state layer (§4.2 of the paper):
// a partitioned key-value store accessed through packet transactions.
// Transactions use software transactional memory with fine-grained strict
// two-phase locking over state partitions and a wound-wait scheme to avoid
// deadlocks when lock ordering is not known in advance. Aborted (wounded)
// transactions are immediately re-executed by Exec.
//
// State is partitioned by key hash; the partitioning is identical on every
// replica so that dependency vectors computed at the head are meaningful at
// followers. The number of partitions should exceed the maximum number of
// CPU cores to keep contention low (§4.2); the default is 64.
//
// Each partition stores its entries in an open-addressing swiss-style table
// (see table.go) rather than a Go map, keeping lookups flat and the churn
// path allocation-free at millions of live flow entries, and optionally ages
// entries out through per-partition hierarchical TTL wheels (see wheel.go
// and Expiry). Expiry never deletes state unilaterally on replicas: the
// store only reports due keys (CollectExpired); the replication layer turns
// them into ordinary replicated deletions so head and follower digests stay
// equal while flows age out.
package state

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ftsfc/ftc/internal/hashx"
)

// DefaultPartitions is the default state-partition count.
const DefaultPartitions = 64

// Errors returned by the transaction layer.
var (
	// ErrWounded aborts a transaction that lost a wound-wait conflict; Exec
	// retries it automatically, so user code only sees it if it calls the
	// txn API directly.
	ErrWounded = errors.New("state: transaction wounded")
	// ErrAbort lets transaction bodies abort voluntarily; Exec does not
	// retry and reports the abort to the caller.
	ErrAbort = errors.New("state: transaction aborted by caller")
	// ErrTxnDone is returned by operations on a committed or aborted txn.
	ErrTxnDone = errors.New("state: transaction finished")
)

// Txn is the state-access interface a packet transaction sees. Middlebox
// code is written against it, so the same middlebox runs unmodified on any
// concurrency engine — the pessimistic two-phase-locking Store, the
// optimistic OCCStore, or a future hardware-transactional-memory backend
// (the adaptability §3.2 of the paper calls out).
type Txn interface {
	// Get reads a key; the bool reports presence.
	Get(key string) ([]byte, bool, error)
	// Put buffers a write, visible at commit.
	Put(key string, val []byte) error
	// Delete buffers a deletion.
	Delete(key string) error
}

// ExpiryTxn is the optional transaction extension for TTL-driven deletion.
// Both engines' transactions implement it. DeleteExpired buffers a deletion
// of key only if the key is still present with a TTL deadline at or before
// now (nanoseconds on the store's expiry clock); a concurrent refresh or
// earlier deletion makes it a no-op. The expiry driver re-validates through
// this instead of issuing blind Deletes so a flow that saw traffic between
// collection and commit survives.
type ExpiryTxn interface {
	DeleteExpired(key string, now int64) (bool, error)
}

// KeyPlacer is the optional transaction extension for middleboxes that lay
// related keys out in one state partition, so a transaction touching them
// takes one partition lock. Every engine's transactions implement it.
type KeyPlacer interface {
	// PartitionOf reports the partition key maps to (Backend.PartitionOf).
	PartitionOf(key string) uint16
	// NumPartitions reports the store's partition count.
	NumPartitions() int
	// Peek reads key like Get, with the same isolation and the same
	// lifetime for the returned value, but does not refresh the key's TTL:
	// probing a key does not keep it alive.
	Peek(key string) ([]byte, bool, error)
}

var (
	_ KeyPlacer = (*lockTxn)(nil)
	_ KeyPlacer = (*batchView)(nil)
	_ KeyPlacer = (*occTxn)(nil)
)

// Backend is the store interface the FTC replication roles run against.
// Both the locking Store and the optimistic OCCStore implement it.
type Backend interface {
	NumPartitions() int
	PartitionOf(key string) uint16
	Get(key string) ([]byte, bool)
	// GetAppend is Get without the per-call allocation: the value is
	// appended to buf (which may be nil) and the result returned. The bool
	// reports presence.
	GetAppend(key string, buf []byte) ([]byte, bool)
	Len() int
	Apply(updates []Update)
	ApplyOwned(updates []Update)
	Snapshot() []Update
	Restore(updates []Update)
	Exec(fn func(tx Txn) error) (Result, error)
	ExecWithHook(fn func(tx Txn) error, onCommit func(Result)) (Result, error)
	// NewBatch returns a single-goroutine batch context that amortizes
	// transaction begin/commit across a burst of Execs (see Batch).
	NewBatch() Batch
	// ConfigureExpiry arms flow-state aging (see Expiry). Call once, before
	// the store sees traffic; a zero-TTL config disables expiry.
	ConfigureExpiry(e Expiry)
	// ConfigureDelta declares key classes holding monotonic 8-byte
	// big-endian counters: committed writes to a matching key whose old and
	// new values are both 8 bytes are tagged UpdateDelta with Delta =
	// new − old, letting the wire layer ship a short varint. Call once,
	// before the store sees traffic; nil disables delta classification.
	ConfigureDelta(prefixes []string)
	// CollectExpired appends to buf up to limit keys whose TTL elapsed at
	// now (nanoseconds on the expiry clock; limit < 0 means no limit) and
	// returns the result. It never deletes: the caller must turn the keys
	// into replicated deletions (see ExpiryTxn.DeleteExpired). The returned
	// key strings are store-owned and stay valid until the keys are deleted.
	CollectExpired(now int64, limit int, buf []string) []string
}

// Expiry configures flow-state aging for a store. Aging is off by default
// and stays off unless TTL > 0 and at least one prefix is given.
//
// Keys matching any of Prefixes get a deadline of now+TTL when written
// (created or refreshed) and when read inside a transaction, so active
// flows never age out. Deadlines are tracked at Tick granularity in
// per-partition hierarchical timing wheels; CollectExpired reports due keys
// so the replication layer can delete them as ordinary replicated writes.
type Expiry struct {
	// TTL is the idle lifetime of a matching entry.
	TTL time.Duration
	// Prefixes selects which keys age: a key expires iff it starts with one
	// of these. Middlebox counters and other shared keys simply use
	// non-matching names.
	Prefixes []string
	// Clock returns the current time in nanoseconds. Nil means wall clock;
	// tests and the chaos harness inject a manual clock.
	Clock func() int64
	// Tick is the wheel granularity (default 50ms). Deadlines are rounded
	// to ticks, so TTL should be at least a few ticks.
	Tick time.Duration
}

// expiryCfg is the resolved, shared form of Expiry. One instance per store;
// partition tables reference it.
type expiryCfg struct {
	ttlTicks int64
	tick     int64 // nanoseconds per wheel tick
	clock    func() int64
	prefixes []string
}

// resolveExpiry validates and resolves e, returning nil if aging is off.
func resolveExpiry(e Expiry) *expiryCfg {
	if e.TTL <= 0 || len(e.Prefixes) == 0 {
		return nil
	}
	tick := int64(e.Tick)
	if tick <= 0 {
		tick = defaultTick
	}
	ttl := (int64(e.TTL) + tick - 1) / tick
	if ttl < minTTLTicks {
		ttl = minTTLTicks
	}
	clock := e.Clock
	if clock == nil {
		clock = func() int64 { return time.Now().UnixNano() }
	}
	return &expiryCfg{
		ttlTicks: ttl,
		tick:     tick,
		clock:    clock,
		prefixes: append([]string(nil), e.Prefixes...),
	}
}

func (c *expiryCfg) matches(key string) bool {
	for _, p := range c.prefixes {
		if strings.HasPrefix(key, p) {
			return true
		}
	}
	return false
}

// nowTick returns the current expiry clock reading in wheel ticks, or 0
// when c is nil (expiry off) — the value table.put treats as "don't arm".
func (c *expiryCfg) nowTick() int64 {
	if c == nil {
		return 0
	}
	return c.clock() / c.tick
}

// ticksAt converts an absolute clock reading (nanoseconds) to wheel ticks.
func (c *expiryCfg) ticksAt(now int64) int64 { return now / c.tick }

// UpdateDelta marks an Update whose new value can be reconstructed as
// old-value + Delta by a receiver that already holds the previous committed
// value — the wire layer then ships a short signed varint instead of the
// full 8-byte counter (see ConfigureDelta).
const UpdateDelta uint8 = 1 << 0

// Update is one state mutation produced by a committed transaction: the
// unit that gets piggybacked and replicated. A nil Value with a zero Flags
// field means deletion.
//
// When Flags has UpdateDelta set, the update is a delta against the
// receiver's last committed value for Key: Delta holds new − old over the
// 8-byte big-endian unsigned integer interpretation (two's-complement
// wraparound). A sender-side delta update still carries the full new value
// in Value (its own store needs it, and the codec falls back to it when the
// peer cannot take deltas); a decoded delta update has Value == nil and is
// resolved against the local store by Apply.
type Update struct {
	Key       string
	Value     []byte
	Partition uint16
	// Flags carries update-class bits (UpdateDelta).
	Flags uint8
	// Delta is new − old for UpdateDelta updates, in counter units.
	Delta int64
}

// deltaCfg holds the resolved delta-classification prefixes (nil = off).
type deltaCfg struct {
	prefixes []string
}

// resolveDelta copies and validates the prefix list, nil when empty.
func resolveDelta(prefixes []string) *deltaCfg {
	if len(prefixes) == 0 {
		return nil
	}
	return &deltaCfg{prefixes: append([]string(nil), prefixes...)}
}

func (c *deltaCfg) matches(key string) bool {
	if c == nil {
		return false
	}
	for _, p := range c.prefixes {
		if strings.HasPrefix(key, p) {
			return true
		}
	}
	return false
}

// classifyDelta tags u with UpdateDelta when its key is a configured
// counter class and both the old table value and the new value are 8-byte
// counters. Called at the commit sites with the partition mutex held,
// immediately before the table install, so the old value read here is
// exactly the receiver's last committed value under in-order apply.
func classifyDelta(c *deltaCfg, tab *table, u *Update) {
	if c == nil || len(u.Value) != 8 || !c.matches(u.Key) {
		return
	}
	old, ok := tab.get(u.Key)
	if !ok || len(old) != 8 {
		return // first write (or shape change): ship the full value
	}
	u.Flags |= UpdateDelta
	u.Delta = int64(binary.BigEndian.Uint64(u.Value) - binary.BigEndian.Uint64(old))
}

// resolveDeltaValue reconstructs the full 8-byte value of a decoded delta
// update against the old table value (missing or malformed old → base 0),
// writing into scratch. Partition mutex held by the caller.
func resolveDeltaValue(tab *table, u *Update, scratch *[8]byte) []byte {
	base := uint64(0)
	if old, ok := tab.get(u.Key); ok && len(old) == 8 {
		base = binary.BigEndian.Uint64(old)
	}
	binary.BigEndian.PutUint64(scratch[:], base+uint64(u.Delta))
	return scratch[:]
}

// partition holds one shard of the store.
type partition struct {
	lock plock // transaction-level wound-wait lock
	mu   sync.Mutex
	tab  table
}

// Store is a partitioned key-value store. A store instance holds the state
// of one middlebox on one replica. The zero value is not usable; call New.
type Store struct {
	parts []partition
	exp   *expiryCfg
	delta *deltaCfg
	tsCtr atomic.Uint64
}

// New creates a store with n partitions (DefaultPartitions if n <= 0).
func New(n int) *Store {
	if n <= 0 {
		n = DefaultPartitions
	}
	s := &Store{parts: make([]partition, n)}
	for i := range s.parts {
		s.parts[i].tab.init(minTableCap)
		s.parts[i].lock.init()
	}
	return s
}

// NumPartitions reports the partition count.
func (s *Store) NumPartitions() int { return len(s.parts) }

// PartitionOf maps a key to its partition index. All replicas of a
// middlebox use the same mapping; hashx is bit-identical to the hash/fnv
// implementation earlier versions used, so the mapping is stable.
func (s *Store) PartitionOf(key string) uint16 {
	return partitionOf(key, len(s.parts))
}

// partitionOf is the shared key→partition mapping: 32-bit FNV-1a modulo the
// partition count. Pinned by golden tests — the replication protocol
// requires every replica to agree on it.
func partitionOf(key string, n int) uint16 {
	return uint16(hashx.Sum32String(key) % uint32(n))
}

// ConfigureExpiry arms flow-state aging (see Expiry). Call once before the
// store sees traffic.
func (s *Store) ConfigureExpiry(e Expiry) {
	cfg := resolveExpiry(e)
	s.exp = cfg
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		p.tab.setExpiry(cfg)
		p.mu.Unlock()
	}
}

// ConfigureDelta implements Backend: declare monotonic-counter key classes
// (see the interface doc). Call once before the store sees traffic.
func (s *Store) ConfigureDelta(prefixes []string) {
	s.delta = resolveDelta(prefixes)
}

// CollectExpired implements Backend (see the interface doc). Partitions are
// scanned by a small worker pool when the store is large enough to benefit
// (see collectShards); results keep partition order either way.
func (s *Store) CollectExpired(now int64, limit int, buf []string) []string {
	if s.exp == nil {
		return buf
	}
	tick := s.exp.ticksAt(now)
	return collectShards(len(s.parts), limit, buf, func(i int, take func() bool, shard []string) []string {
		p := &s.parts[i]
		p.mu.Lock()
		shard = p.tab.collectExpired(tick, take, shard)
		p.mu.Unlock()
		return shard
	})
}

// collectShards runs collect(i, take, buf) over partitions 0..nparts-1,
// appending the per-partition results to buf in partition order and
// honouring limit (limit < 0 means no limit) through take, which claims one
// key of the budget and reports false once it is spent. When the partition
// count and GOMAXPROCS allow, contiguous partition ranges are scanned by
// parallel workers — forced expiry at millions of keys is otherwise
// single-threaded on the head. The workers share the budget, so nothing a
// worker collects is dropped: a limited parallel collection may pick a
// different (equally valid) subset of due keys than the serial scan, and a
// due key left out stays due for the next collection.
func collectShards(nparts, limit int, buf []string, collect func(i int, take func() bool, shard []string) []string) []string {
	var budget atomic.Int64
	budget.Store(int64(limit - len(buf)))
	take := func() bool { return limit < 0 || budget.Add(-1) >= 0 }
	spent := func() bool { return limit >= 0 && budget.Load() <= 0 }

	const minPartsPerWorker = 8
	workers := runtime.GOMAXPROCS(0)
	if max := nparts / minPartsPerWorker; workers > max {
		workers = max
	}
	if workers <= 1 {
		for i := 0; i < nparts && !spent(); i++ {
			buf = collect(i, take, buf)
		}
		return buf
	}
	shards := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*nparts/workers, (w+1)*nparts/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var out []string
			for i := lo; i < hi && !spent(); i++ {
				out = collect(i, take, out)
			}
			shards[w] = out
		}(w, lo, hi)
	}
	wg.Wait()
	for _, s := range shards {
		buf = append(buf, s...)
	}
	return buf
}

// Get reads a key outside any transaction. It is linearizable per key but
// unordered with respect to running transactions; intended for tests,
// recovery, and read-only inspection.
func (s *Store) Get(key string) ([]byte, bool) {
	out, ok := s.GetAppend(key, nil)
	if !ok {
		return nil, false
	}
	if out == nil {
		out = []byte{}
	}
	return out, true
}

// GetAppend implements Backend: Get with caller-provided storage.
func (s *Store) GetAppend(key string, buf []byte) ([]byte, bool) {
	p := &s.parts[s.PartitionOf(key)]
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.tab.get(key)
	if !ok {
		return buf, false
	}
	return append(buf, v...), true
}

// Len reports the total number of keys.
func (s *Store) Len() int {
	n := 0
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		n += p.tab.live
		p.mu.Unlock()
	}
	return n
}

// Apply installs replicated updates directly, bypassing the transaction
// layer. Followers call this once the dependency-vector logic has
// established that the update is in order. Values are copied into
// store-owned buffers; the caller keeps ownership of its own. Decoded delta
// updates (UpdateDelta set, Value nil) are resolved against the current
// table value — in-order exactly-once apply makes that the same base the
// sender diffed against.
func (s *Store) Apply(updates []Update) {
	now := s.exp.nowTick()
	var scratch [8]byte
	for i := range updates {
		u := &updates[i]
		p := &s.parts[int(u.Partition)%len(s.parts)]
		p.mu.Lock()
		switch {
		case u.Flags&UpdateDelta != 0 && u.Value == nil:
			// Materialize the resolved value into the update: callers that
			// retain the log (follower retransmission buffers) must be able
			// to re-serve it with a full value, e.g. to a successor whose
			// recovery snapshot partially overlaps a coalesced run.
			u.Value = append(make([]byte, 0, 8), resolveDeltaValue(&p.tab, u, &scratch)...)
			p.tab.put(u.Key, u.Value, now)
		case u.Value == nil:
			p.tab.del(u.Key)
		default:
			p.tab.put(u.Key, u.Value, now)
		}
		p.mu.Unlock()
	}
}

// ApplyOwned is Apply for callers that give up ownership of the update
// values. The swiss-table store copies values into slot-owned recycled
// buffers either way (an in-place overwrite must never mutate a buffer a
// retained log still references), so this is now identical to Apply; the
// method remains so the follower apply path keeps its historical contract.
func (s *Store) ApplyOwned(updates []Update) { s.Apply(updates) }

// Snapshot captures the full contents of the store as a list of updates,
// used to transfer state during failure recovery. The snapshot of each
// partition is atomic; the caller is responsible for quiescing the store if
// a globally consistent image is required (recovery does: the source
// replica stops admitting packets first, §4.1).
func (s *Store) Snapshot() []Update {
	var out []Update
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		p.tab.iterate(func(k string, v []byte) {
			val := make([]byte, len(v))
			copy(val, v)
			out = append(out, Update{Key: k, Value: val, Partition: uint16(i)})
		})
		p.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Restore replaces the store contents with the given snapshot. Restored
// keys that match a TTL prefix are re-armed with a fresh deadline: the
// wheel state itself is not part of the replicated state, so a recovered
// replica grants restored flows a full TTL (documented failover slack —
// at most one extra TTL of lifetime per recovery).
func (s *Store) Restore(updates []Update) {
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		p.tab.init(minTableCap)
		p.mu.Unlock()
	}
	s.Apply(updates)
}

// Result reports what a committed transaction did.
type Result struct {
	// Updates are the state writes in program order, ready for piggybacking.
	// Empty for read-only transactions.
	Updates []Update
	// Touched lists the partitions read or written, ascending. Used by the
	// head to maintain its dependency vector.
	Touched []uint16
	// ReadOnly is true if the transaction performed no writes.
	ReadOnly bool
	// Retries counts wound-wait re-executions before the commit.
	Retries int
}

// Exec runs fn as a packet transaction: serializable, atomically committed,
// automatically re-executed when wounded. If fn returns an error the
// transaction aborts with no effects and Exec returns that error.
//
// Exec is the paper's "packet transaction" (§3.2, §4.2): the runtime starts
// the transaction when a packet arrives and completes it when the middlebox
// releases the packet.
func (s *Store) Exec(fn func(tx Txn) error) (Result, error) {
	return s.ExecWithHook(fn, nil)
}

// ExecWithHook is Exec with a commit hook that runs after the writes are
// applied but before the partition locks release. The head uses it to
// update its dependency vector at the transaction's serialization point.
func (s *Store) ExecWithHook(fn func(tx Txn) error, onCommit func(Result)) (Result, error) {
	ts := s.tsCtr.Add(1) // wound-wait priority: kept across retries
	retries := 0
	for {
		tx := newTxn(s, ts)
		err := fn(tx)
		if err == nil {
			res, cerr := tx.commit(onCommit)
			if cerr == ErrWounded {
				retries++
				continue
			}
			res.Retries = retries
			return res, cerr
		}
		tx.abort()
		if errors.Is(err, ErrWounded) {
			retries++
			continue
		}
		return Result{}, err
	}
}
