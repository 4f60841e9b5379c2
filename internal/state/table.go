package state

import (
	"encoding/binary"
	"math/bits"

	"github.com/ftsfc/ftc/internal/hashx"
)

// table is an open-addressing, swiss-style hash table holding one partition's
// key/value slots. It replaces the seed's map[string][]byte so the store
// stays fast and allocation-free at millions of live, churning flow entries:
//
//   - Control bytes: one metadata byte per slot (empty / tombstone / low 7
//     hash bits of a full slot), scanned 8 at a time with SWAR word matches.
//     A lookup touches the control word first and only compares keys on
//     candidate slots, so misses rarely dereference a key.
//   - Flat slot arrays: keys, values and OCC versions live in one slot
//     struct per entry; TTL bookkeeping lives in a parallel array that only
//     a table aging keys allocates, so a follower's slots stay 48 bytes.
//     Values are copied into slot-owned buffers whose capacity is recycled
//     across overwrites and delete/reinsert cycles — steady-state churn
//     performs zero allocations.
//   - Probing: the 64-bit FNV-1a hash (hashx.Sum64String) splits into h1
//     (group index) and h2 (control byte). Probing walks groups of 8 slots
//     in a triangular sequence (g, g+1, g+3, g+6, ... mod groups), which
//     visits every group exactly once when the group count is a power of two.
//   - Tombstone compaction: deletes write a tombstone so probe chains stay
//     intact. When an insert would exceed the load bound, the table either
//     doubles (over 3/4 live) or rehashes at the same size, so a
//     delete-heavy workload — TTL churn — cannot degrade probes without
//     bound, nor double a table that is mostly tombstones.
//
// The table is not internally synchronized: callers hold the partition
// mutex, exactly as they did around the seed's map accesses.
type table struct {
	ctrl  []uint8 // len == len(slots), grouped 8 bytes per probe group
	slots []slot
	ttl   []slotTTL // per-slot TTL bookkeeping; nil unless exp is set
	mask  uint64    // group count - 1 (group count is a power of two)
	live  int       // full slots
	dead  int       // tombstones
	exp   *expiryCfg
	wheel wheel
}

// slot is one table entry.
type slot struct {
	key string
	val []byte
	ver uint64 // per-key OCC version (unused by the 2PL engine)
}

// slotTTL is one slot's TTL bookkeeping. gen counts slot lifecycles (insert
// after delete/rehash) so timer-wheel entries referencing the slot by index
// can detect staleness; sched records whether a live wheel entry exists for
// the current lifecycle, keeping wheel membership at most one entry per
// slot.
type slotTTL struct {
	exp   int64  // expiry deadline in wheel ticks; 0 = no TTL
	gen   uint32 // lifecycle counter validating wheel entries
	sched bool   // a wheel entry exists for this lifecycle
}

// Control byte values. Full slots store h2 (the top 7 hash bits, < 0x80), so
// the high bit distinguishes full from empty/tombstone and SWAR word tests
// can find either in one subtraction.
const (
	ctrlEmpty   = 0x80
	ctrlDeleted = 0xFE
)

const (
	groupSize     = 8
	minTableCap   = 2 * groupSize // smallest table: 2 groups
	loadFactorNum = 7             // grow/compact above 7/8 occupancy
	loadFactorDen = 8
)

// SWAR helpers: the 8 control bytes of a group load as one little-endian
// word; matchByte yields a word with the high bit set in every byte equal to
// b (for b with distinguishable patterns, which ctrl bytes guarantee).
const (
	swarLSB = 0x0101010101010101
	swarMSB = 0x8080808080808080
)

func matchByte(w uint64, b uint8) uint64 {
	x := w ^ (swarLSB * uint64(b))
	return (x - swarLSB) &^ x & swarMSB
}

// matchNonFull yields the high bit of every empty or tombstone byte (both
// have the top control bit set).
func matchNonFull(w uint64) uint64 { return w & swarMSB }

// splitHash derives the group-probe start and control byte from a key hash.
func splitHash(h uint64) (h1 uint64, h2 uint8) {
	return h >> 7, uint8(h & 0x7f)
}

func (t *table) init(capHint int) {
	c := minTableCap
	for c < capHint {
		c <<= 1
	}
	t.alloc(c)
	t.live, t.dead = 0, 0
}

// alloc installs empty arrays for c slots, with TTL bookkeeping when the
// table ages keys.
func (t *table) alloc(c int) {
	t.ctrl = make([]uint8, c)
	for i := range t.ctrl {
		t.ctrl[i] = ctrlEmpty
	}
	t.slots = make([]slot, c)
	t.ttl = nil
	if t.exp != nil {
		t.ttl = make([]slotTTL, c)
	}
	t.mask = uint64(c/groupSize - 1)
}

// setExpiry arms (cfg non-nil) or disarms TTL bookkeeping. Call before the
// table holds TTL-prefixed keys.
func (t *table) setExpiry(cfg *expiryCfg) {
	t.exp = cfg
	t.ttl = nil
	if cfg != nil {
		t.ttl = make([]slotTTL, len(t.slots))
	}
}


func (t *table) groupWord(g uint64) uint64 {
	return binary.LittleEndian.Uint64(t.ctrl[g*groupSize:])
}

// find returns the slot index of key, or -1. h is hashx.Sum64String(key).
func (t *table) find(key string, h uint64) int {
	h1, h2 := splitHash(h)
	g := h1 & t.mask
	for step := uint64(1); ; step++ {
		w := t.groupWord(g)
		for m := matchByte(w, h2); m != 0; m &= m - 1 {
			si := int(g)*groupSize + trailingByte(m)
			if t.slots[si].key == key {
				return si
			}
		}
		if matchByte(w, ctrlEmpty) != 0 {
			return -1
		}
		g = (g + step) & t.mask
	}
}

// findForInsert locates key or, if absent, the slot a new entry should use:
// the first tombstone on the probe path, else the first empty slot in the
// terminating group. found reports whether key is present.
func (t *table) findForInsert(key string, h uint64) (si int, found bool) {
	h1, h2 := splitHash(h)
	g := h1 & t.mask
	tomb := -1
	for step := uint64(1); ; step++ {
		w := t.groupWord(g)
		for m := matchByte(w, h2); m != 0; m &= m - 1 {
			i := int(g)*groupSize + trailingByte(m)
			if t.slots[i].key == key {
				return i, true
			}
		}
		if tomb < 0 {
			if m := matchByte(w, ctrlDeleted); m != 0 {
				tomb = int(g)*groupSize + trailingByte(m)
			}
		}
		if m := matchByte(w, ctrlEmpty); m != 0 {
			if tomb >= 0 {
				return tomb, false
			}
			return int(g)*groupSize + trailingByte(m), false
		}
		g = (g + step) & t.mask
	}
}

// trailingByte converts a SWAR match word (bits only at positions 7, 15,
// ..., 63) to the index of its lowest set byte (0..7).
func trailingByte(m uint64) int {
	return bits.TrailingZeros64(m) / 8
}

// get returns the value slice of key (table-owned; copy before releasing the
// partition mutex) and whether it is present.
func (t *table) get(key string) ([]byte, bool) {
	si := t.find(key, hashx.Sum64String(key))
	if si < 0 {
		return nil, false
	}
	return t.slots[si].val, true
}

// getSlot returns the slot index of key, or -1.
func (t *table) getSlot(key string) int {
	return t.find(key, hashx.Sum64String(key))
}

// getRefresh is get plus the transactional read-path TTL refresh: an armed
// entry read at nowTick lives another TTL. nowTick == 0 (expiry off, or an
// observer read) skips the refresh.
func (t *table) getRefresh(key string, nowTick int64) ([]byte, bool) {
	si := t.find(key, hashx.Sum64String(key))
	if si < 0 {
		return nil, false
	}
	if nowTick > 0 && t.exp != nil {
		t.refresh(si, nowTick)
	}
	return t.slots[si].val, true
}

// put inserts or overwrites key with a copy of val, recycling the slot's
// value capacity. nowTick arms/refreshes the TTL when the table has an
// expiry config and the key matches a TTL prefix (pass 0 when expiry is
// off). Returns the slot index.
func (t *table) put(key string, val []byte, nowTick int64) int {
	h := hashx.Sum64String(key)
	si, found := t.findForInsert(key, h)
	if !found {
		if (t.live+t.dead+1)*loadFactorDen > len(t.slots)*loadFactorNum {
			t.rehash()
			si, _ = t.findForInsert(key, h)
		}
		if t.ctrl[si] == ctrlDeleted {
			t.dead--
		}
		_, h2 := splitHash(h)
		t.ctrl[si] = h2
		t.live++
		t.slots[si].key = key
		t.slots[si].ver = 0
		if t.ttl != nil {
			tt := &t.ttl[si]
			tt.gen++
			tt.sched = false
			tt.exp = 0
		}
	}
	s := &t.slots[si]
	s.val = append(s.val[:0], val...)
	if t.exp != nil && nowTick > 0 && t.exp.matches(key) {
		t.arm(si, nowTick)
	}
	return si
}

// arm sets the slot's TTL deadline to now+TTL and ensures a wheel entry
// exists for this lifecycle. Refreshes are lazy: if the slot is already
// scheduled, only the deadline moves and the wheel entry re-files itself
// when it pops early.
func (t *table) arm(si int, nowTick int64) {
	s := &t.ttl[si]
	s.exp = nowTick + t.exp.ttlTicks
	if !s.sched {
		s.sched = true
		t.wheel.add(wheelEntry{slot: int32(si), gen: s.gen}, s.exp)
	}
}

// refresh pushes the slot's deadline out without touching the wheel. It is
// the read-path half of TTL maintenance (flows with traffic stay alive).
func (t *table) refresh(si int, nowTick int64) {
	s := &t.ttl[si]
	if s.exp != 0 {
		s.exp = nowTick + t.exp.ttlTicks
	}
}

// del removes key, leaving a tombstone. Reports whether the key was present.
func (t *table) del(key string) bool {
	si := t.find(key, hashx.Sum64String(key))
	if si < 0 {
		return false
	}
	t.delSlot(si)
	return true
}

func (t *table) delSlot(si int) {
	t.ctrl[si] = ctrlDeleted
	s := &t.slots[si]
	s.key = ""        // release the key string to GC
	s.val = s.val[:0] // keep capacity for the next tenant
	s.ver = 0
	if t.ttl != nil {
		tt := &t.ttl[si]
		tt.exp = 0
		tt.gen++ // invalidate any wheel entry for the old lifecycle
		tt.sched = false
	}
	t.live--
	t.dead++
}

// rehash rebuilds the table: doubling when more than 3/4 of it is live, at
// the same size otherwise (compaction: tombstones dominate). Armed TTL
// entries are re-filed into a fresh wheel since slot indices change.
func (t *table) rehash() {
	newCap := len(t.slots)
	if (t.live+1)*4 > newCap*3 {
		newCap *= 2
	}
	oldCtrl, oldSlots, oldTTL := t.ctrl, t.slots, t.ttl
	t.alloc(newCap)
	t.live, t.dead = 0, 0
	t.wheel.reset()
	for i := range oldCtrl {
		if oldCtrl[i]&0x80 != 0 {
			continue
		}
		os := &oldSlots[i]
		h := hashx.Sum64String(os.key)
		si, _ := t.findForInsert(os.key, h)
		_, h2 := splitHash(h)
		t.ctrl[si] = h2
		t.live++
		s := &t.slots[si]
		s.key = os.key
		s.val = os.val // move the buffer; the old slot array is dropped
		s.ver = os.ver
		if oldTTL != nil && oldTTL[i].exp != 0 {
			tt := &t.ttl[si]
			tt.exp = oldTTL[i].exp
			tt.sched = true
			t.wheel.add(wheelEntry{slot: int32(si), gen: tt.gen}, tt.exp)
		}
	}
}

// iterate calls fn for every live entry. The value slice is table-owned.
func (t *table) iterate(fn func(key string, val []byte)) {
	for i, c := range t.ctrl {
		if c&0x80 == 0 {
			fn(t.slots[i].key, t.slots[i].val)
		}
	}
}

// collectExpired advances the wheel to nowTick and appends due keys to out
// while take grants budget (table-owned key strings — they stay valid until
// the keys are deleted). Entries whose deadline was refreshed past nowTick
// are re-filed; entries past the budget park on the pending list so the
// next collection retries them even at the same clock reading. The due keys
// themselves stay armed: the caller deletes them through a replicated
// transaction, which re-checks the deadline.
func (t *table) collectExpired(nowTick int64, take func() bool, out []string) []string {
	t.wheel.advance(nowTick, func(e wheelEntry) int64 {
		s := &t.ttl[e.slot]
		if s.gen != e.gen || s.exp == 0 {
			return 0 // stale: the slot was deleted or rehashed away
		}
		if s.exp > nowTick {
			return s.exp // refreshed since filing: re-file at the new deadline
		}
		if !take() {
			// Over budget: park on the pending list, which the next
			// collection drains even when the clock has not moved —
			// ExpireNow loops at one clock reading.
			return parkPending
		}
		out = append(out, t.slots[e.slot].key)
		// Stays scheduled, on the pending list, until the replicated delete
		// lands: the next collection finds the entry stale and drops it.
		return parkPending
	})
	return out
}

// expiredAt reports whether key is present with a TTL deadline at or before
// nowTick. Used by ExpiryTxn.DeleteExpired to re-validate under the
// transaction before installing a replicated deletion.
func (t *table) expiredAt(key string, nowTick int64) bool {
	return t.dueAt(t.find(key, hashx.Sum64String(key)), nowTick)
}

// dueAt reports whether slot si (-1: absent) holds a key with a TTL
// deadline at or before nowTick.
func (t *table) dueAt(si int, nowTick int64) bool {
	if si < 0 || t.ttl == nil {
		return false
	}
	s := &t.ttl[si]
	return s.exp != 0 && s.exp <= nowTick
}
