package state

// wheel is a two-level hierarchical timing wheel tracking TTL deadlines for
// one partition table. Level 0 resolves single ticks across a 256-tick
// window; level 1 covers 256×256 ticks at 256-tick resolution; deadlines
// beyond both horizons park in an overflow list. Entries reference table
// slots by index plus a lifecycle generation, so a deleted or rehashed slot
// simply invalidates its entry instead of requiring removal.
//
// The wheel is deliberately tolerant of imprecise filing: advance re-checks
// every popped entry against the slot's current deadline (via the caller's
// callback) and re-files it if the deadline moved. That makes refresh lazy —
// a read or write that extends a flow's TTL only rewrites slot.exp; the
// stale wheel entry re-files itself when it pops early. Combined with the
// slot.sched flag (at most one live entry per slot lifecycle), wheel
// membership never grows beyond the live armed-key count plus stale entries
// awaiting one pop.
//
// Like the table, the wheel is guarded by the partition mutex.
type wheel struct {
	// l0 and l1 are the two levels' buckets, each nil until an entry is
	// first filed into that level: stores without expiry pay nothing, and
	// TTLs shorter than the level-0 window never allocate level 1.
	l0, l1   [][]wheelEntry
	overflow []wheelEntry   // deadlines beyond the level-1 horizon
	pending  []wheelEntry   // due now: re-filed at or before the current tick
	spare    [][]wheelEntry // emptied bucket arrays, reused by whichever bucket fills next
	last     int64          // last tick advance processed
	started  bool
}

// wheelEntry references one armed table slot.
type wheelEntry struct {
	slot int32  // table slot index
	gen  uint32 // slot lifecycle generation at filing time
}

const (
	wheelBits    = 8
	wheelSlots   = 1 << wheelBits // buckets per level
	wheelMask    = wheelSlots - 1
	wheelSpan    = wheelSlots * wheelSlots // level-1 horizon in ticks
	defaultTick  = 50 * 1000 * 1000        // 50ms in nanoseconds
	minTTLTicks  = 1
	sweepGapTick = wheelSpan // clock jumps past the horizon trigger a sweep
	parkPending  = -1        // refile result: keep the entry for the next advance
)

func (w *wheel) reset() {
	for _, level := range [][][]wheelEntry{w.l0, w.l1} {
		for i := range level {
			w.recycle(&level[i])
		}
	}
	w.overflow = w.overflow[:0]
	w.pending = w.pending[:0]
	w.started = false
	w.last = 0
}

// add files e under its deadline tick. Deadlines at or before the current
// tick go to the pending list, which the next advance drains regardless of
// clock movement.
func (w *wheel) add(e wheelEntry, tick int64) {
	if !w.started {
		w.started = true
		w.last = tick - 1
	}
	rel := tick - w.last
	switch {
	case rel <= 0:
		w.file(&w.pending, e)
	case rel < wheelSlots:
		if w.l0 == nil {
			w.l0 = make([][]wheelEntry, wheelSlots)
		}
		w.file(&w.l0[int(tick)&wheelMask], e)
	case rel < wheelSpan:
		if w.l1 == nil {
			w.l1 = make([][]wheelEntry, wheelSlots)
		}
		w.file(&w.l1[int(tick>>wheelBits)&wheelMask], e)
	default:
		w.file(&w.overflow, e)
	}
}

// advance moves the wheel to nowTick, invoking refile for every entry whose
// bucket comes due. refile returns the entry's next deadline tick: 0 drops
// the entry (stale or consumed), parkPending parks it on the pending list,
// and any other value re-files it (one at or before the tick being
// processed is examined again within this call). Pending entries are
// re-examined on the next call, even when the clock has not moved.
func (w *wheel) advance(nowTick int64, refile func(wheelEntry) int64) {
	if !w.started && len(w.pending) == 0 {
		return // nothing ever filed
	}
	if !w.started {
		w.started = true
		w.last = nowTick
	}
	w.drain(&w.pending, refile)
	if nowTick <= w.last {
		return
	}
	if nowTick-w.last >= sweepGapTick {
		// The clock jumped past the wheel horizon (forced expiry, long
		// idle): re-examine everything instead of stepping tick by tick.
		for _, level := range [][][]wheelEntry{w.l0, w.l1} {
			for i := range level {
				w.drain(&level[i], refile)
			}
		}
		w.drain(&w.overflow, refile)
		w.last = nowTick
		return
	}
	for t := w.last + 1; t <= nowTick; t++ {
		w.last = t // filing position for re-files during this tick
		if t&wheelMask == 0 {
			// Cascade: redistribute the level-1 bucket this window opens.
			if w.l1 != nil {
				w.drain(&w.l1[int(t>>wheelBits)&wheelMask], refile)
			}
			if (t>>wheelBits)&wheelMask == 0 {
				w.drain(&w.overflow, refile)
			}
		}
		if w.l0 != nil {
			w.drain(&w.l0[int(t)&wheelMask], refile)
		}
	}
	w.last = nowTick
}

// file appends e to a bucket, giving an empty bucket a spare array first.
func (w *wheel) file(bucket *[]wheelEntry, e wheelEntry) {
	if cap(*bucket) == 0 && len(w.spare) > 0 {
		*bucket = w.spare[len(w.spare)-1]
		w.spare[len(w.spare)-1] = nil
		w.spare = w.spare[:len(w.spare)-1]
	}
	*bucket = append(*bucket, e)
}

// recycle empties a bucket and moves its array to the spare list. Arrays
// follow the entries: a bucket that drains hands its capacity to whichever
// bucket fills next, so the wheel holds about one TTL of arrivals instead
// of every bucket's peak.
func (w *wheel) recycle(bucket *[]wheelEntry) {
	if cap(*bucket) > 0 {
		w.spare = append(w.spare, (*bucket)[:0])
	}
	*bucket = nil
}

// drain empties one bucket through refile, re-filing survivors. The bucket
// is detached first so re-files landing in the same bucket are kept, and
// its array is recycled afterwards.
func (w *wheel) drain(bucket *[]wheelEntry, refile func(wheelEntry) int64) {
	entries := *bucket
	if len(entries) == 0 {
		return
	}
	*bucket = nil
	for _, e := range entries {
		switch next := refile(e); {
		case next == parkPending:
			w.file(&w.pending, e)
		case next > 0:
			w.add(e, next)
		}
	}
	w.spare = append(w.spare, entries[:0])
}
