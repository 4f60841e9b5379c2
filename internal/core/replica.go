package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ftsfc/ftc/internal/metrics"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// Stats counts data-plane events at a replica. All fields are atomic.
type Stats struct {
	RxFrames      atomic.Uint64 // frames received
	TxFrames      atomic.Uint64 // frames forwarded to the next hop
	Egress        atomic.Uint64 // packets released out of the chain
	Held          atomic.Uint64 // packets ever held by the buffer
	Filtered      atomic.Uint64 // packets dropped by the middlebox verdict
	ParseErrors   atomic.Uint64
	StaleGen      atomic.Uint64 // packets fenced by a generation mismatch
	FencedHeld    atomic.Uint64 // held packets dropped by a generation bump
	Repairs       atomic.Uint64 // repair RPCs issued
	RepairedLogs  atomic.Uint64 // logs recovered via repair
	ApplyTimeouts atomic.Uint64 // logs that could not be repaired in time
	Duplicates    atomic.Uint64 // duplicate logs suppressed
	MBErrors      atomic.Uint64 // middlebox processing errors
	Propagating   atomic.Uint64 // propagating packets emitted
	FencedCmds    atomic.Uint64 // control commands rejected for a stale controller term

	// Goodput accounting on the inter-replica hops (bytes). AppBytesOut is
	// the application frame (headers + payload) before the trailer went on;
	// PiggybackBytesOut is everything added for replication — trailers,
	// carrier and transfer frames, spillover RPC bodies; WireBytesOut is
	// their sum, the total bytes put on chain links. Goodput is
	// AppBytesOut/WireBytesOut.
	AppBytesOut       atomic.Uint64
	PiggybackBytesOut atomic.Uint64
	WireBytesOut      atomic.Uint64
	SpilledLogs       atomic.Uint64 // logs diverted to the spillover RPC by the byte budget
}

// SchedStats exposes the scheduling layer's observability (DESIGN.md §9):
// the burst budget the adaptive controller last settled on. Per-queue
// depths and selector clamps live on the netsim node (QueueDepths, Clamps).
type SchedStats struct {
	// Steals counted bursts drained from a sibling worker's queue when
	// workers stole work. Each worker now owns its queue, so it stays 0; it
	// is kept so dashboards and benchmark records that read it still do.
	Steals metrics.Counter
	Burst  metrics.Gauge // most recent per-worker burst budget
}

// Replica is one FTC chain node: it hosts a middlebox and the head of that
// middlebox's replication group, follows the F preceding middleboxes, acts
// as tail for one of them, and — at the ends of the chain — runs the
// forwarder and buffer elements (§5). Extension replicas (rings longer than
// the chain) host no middlebox and only replicate.
type Replica struct {
	cfg    Config
	ring   Ring
	idx    int
	sim    *netsim.Node
	fabric *netsim.Fabric
	egress netsim.NodeID

	mb        Middlebox
	head      *Head // nil on extension replicas
	followers map[uint16]*Follower

	gen atomic.Uint32

	// ctrlTerm is the controller fence floor: the highest orchestrator
	// leader term this replica has acknowledged. Routing/generation commands
	// below it are rejected (stats.FencedCmds).
	ctrlTerm atomic.Uint64

	routeMu sync.RWMutex
	ringIDs []netsim.NodeID

	commitMu   sync.Mutex
	commitSeen map[uint16][]uint64
	pruneTick  map[uint16]int

	fwd *forwarder    // non-nil on ring node 0
	buf *egressBuffer // non-nil on the last ring node

	diet  bool  // piggyback diet on: v2 wire, coalescing, delta updates
	ver   uint8 // wire version stamped on every message this replica builds
	tails []int // middleboxes whose group tail sits at this node (precomputed)

	wrapOnce sync.Once
	wrapped  []uint16 // middleboxes with wrapped groups (buffer bookkeeping)

	tailTick     atomic.Uint32 // commit dissemination throttle (§4.1 "periodically")
	lastCommit   atomic.Int64  // unix nanos of the last disseminated commit
	carrierOnce  sync.Once
	carrier      []byte      // prebuilt carrier frame template
	releaseDirty atomic.Bool // new wrapped-group commits since last release scan

	expiryOn   bool         // head store has TTL prefixes armed
	lastExpiry atomic.Int64 // expiry-clock nanos of the last wheel scan
	expMu      sync.Mutex   // serializes expiry scans
	expKeys    []string     // reusable CollectExpired buffer

	stats    Stats
	sched    SchedStats
	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup
}

// ReplicaSpec carries the per-node wiring for NewReplica.
type ReplicaSpec struct {
	// Index is the node's ring position.
	Index int
	// Sim is the fabric node this replica runs on.
	Sim *netsim.Node
	// Fabric connects the chain.
	Fabric *netsim.Fabric
	// RingIDs are the fabric node IDs of all ring positions, in order.
	RingIDs []netsim.NodeID
	// Egress receives packets released from the chain (last node only).
	Egress netsim.NodeID
	// MB is the middlebox this node hosts; nil for extension replicas.
	MB Middlebox
	// TTLPrefixes maps a middlebox index to the key prefixes whose entries
	// age out under Config.FlowTTL (nil = no aging for that middlebox).
	// ChainPrefixes derives it from each middlebox's FlowTTLer
	// implementation. Only the hosted middlebox's head store arms TTLs, so
	// only its prefixes matter here.
	TTLPrefixes func(mb int) []string
	// DeltaPrefixes maps a middlebox index to the key prefixes whose 8-byte
	// counter values travel as deltas under the piggyback diet (nil = no
	// delta encoding for that middlebox). ChainPrefixes derives it from
	// each middlebox's DeltaPrefixer implementation; only the hosted
	// middlebox's head store classifies, so only its prefixes matter here.
	DeltaPrefixes func(mb int) []string
}

// NewReplica wires up (but does not start) a chain replica.
func NewReplica(cfg Config, spec ReplicaSpec) *Replica {
	cfg = cfg.WithDefaults()
	ring := cfg.Ring()
	r := &Replica{
		cfg:        cfg,
		ring:       ring,
		idx:        spec.Index,
		sim:        spec.Sim,
		fabric:     spec.Fabric,
		egress:     spec.Egress,
		mb:         spec.MB,
		followers:  make(map[uint16]*Follower),
		ringIDs:    append([]netsim.NodeID(nil), spec.RingIDs...),
		commitSeen: make(map[uint16][]uint64),
		pruneTick:  make(map[uint16]int),
		stopped:    make(chan struct{}),
	}
	r.gen.Store(cfg.Gen)
	r.diet = !cfg.NoDiet
	r.ver = msgV2
	if cfg.NoDiet {
		r.ver = msgV1
	}
	r.tails = ring.TailsOf(spec.Index)
	if spec.MB != nil {
		r.head = NewHead(uint16(spec.Index), cfg.NewStore(cfg.Partitions))
		if cfg.FlowTTL > 0 && spec.TTLPrefixes != nil {
			if pre := spec.TTLPrefixes(spec.Index); len(pre) > 0 {
				r.head.Store().ConfigureExpiry(state.Expiry{
					TTL:      cfg.FlowTTL,
					Prefixes: pre,
					Clock:    cfg.ExpiryClock,
				})
				r.expiryOn = true
			}
		}
		if r.diet && spec.DeltaPrefixes != nil {
			// Only the head classifies deltas (at its commit points);
			// followers merely resolve them on apply, which needs no config.
			if pre := spec.DeltaPrefixes(spec.Index); len(pre) > 0 {
				r.head.Store().ConfigureDelta(pre)
			}
		}
	}
	for _, j := range ring.FollowerOf(spec.Index) {
		// Follower stores arm no TTLs: they never collect expired keys —
		// deletions arrive as replicated updates from the head — so an armed
		// wheel would only grow. A replica that takes over a head builds a
		// fresh head store, whose Restore arms every restored flow.
		r.followers[uint16(j)] = NewFollower(uint16(j), cfg.NewStore(cfg.Partitions))
	}
	for j := 0; j < cfg.NumMB; j++ {
		r.commitSeen[uint16(j)] = make([]uint64, cfg.Partitions)
	}
	if spec.Index == 0 {
		r.fwd = newForwarder()
	}
	if spec.Index == ring.M()-1 {
		r.buf = newEgressBuffer()
	}
	return r
}

// Index returns the replica's ring position.
func (r *Replica) Index() int { return r.idx }

// SimID returns the fabric node ID the replica runs on.
func (r *Replica) SimID() netsim.NodeID { return r.sim.ID() }

// Head returns the replica's head role (nil on extension replicas).
func (r *Replica) Head() *Head { return r.head }

// Follower returns the replica's follower role for middlebox j, or nil.
func (r *Replica) Follower(j uint16) *Follower { return r.followers[j] }

// Stats exposes the replica's counters.
func (r *Replica) Stats() *Stats { return &r.stats }

// Sched exposes the scheduling layer's counters.
func (r *Replica) Sched() *SchedStats { return &r.sched }

// Gen returns the replica's current chain generation.
func (r *Replica) Gen() uint32 { return r.gen.Load() }

// SetGen fences the replica onto a new chain generation. On the chain's
// last node the egress buffer is flushed at the boundary: packets whose
// logs the outgoing lineage already committed are released, and the rest —
// the paper's "packets in flight" that a new generation no longer admits
// (§4.1) — are dropped, because the new lineage resumes log sequencing
// from a fetched vector and its commits cannot vouch for their state.
func (r *Replica) SetGen(g uint32) {
	if r.buf != nil && r.gen.Load() != g {
		r.tryRelease() // release what the old lineage committed
	}
	old := r.gen.Swap(g)
	if r.buf != nil && old != g {
		r.tryRelease() // drop the fenced remainder
	}
}

// Start launches the worker threads — one per ingress queue, each pinned to
// its queue (DESIGN.md §9) — and, on the first node, the propagating timer,
// and registers the control-plane handlers.
func (r *Replica) Start() {
	r.registerControl()
	for q := 0; q < r.sim.NumQueues(); q++ {
		r.wg.Add(1)
		go func(q int) {
			defer r.wg.Done()
			r.runWorker(q)
		}(q)
	}
	if r.fwd != nil {
		r.wg.Add(1)
		go r.propagateLoop()
	}
	if r.head != nil && r.cfg.F > 0 {
		r.wg.Add(1)
		go r.resendLoop()
	}
}

// runWorker is the worker loop: block on one ingress queue, drain up to the
// controller's budget, process, flush, repeat.
func (r *Replica) runWorker(q int) {
	w := r.newWorker()
	ctl := netsim.NewBurstController(r.cfg.Burst, r.cfg.MaxBurst)
	for {
		n := r.sim.RecvBurst(q, w.in[:ctl.Size()])
		if n == 0 {
			// Crash or shutdown mid-stream: release any state locks
			// the batch retains so post-mortem store reads (recovery,
			// digests) never block on a dead worker.
			if w.batch != nil {
				w.batch.Flush()
			}
			return
		}
		r.handleBurst(w, n)
		ctl.Observe(n, r.sim.QueueLen(q))
		r.sched.Burst.Set(int64(ctl.Size()))
	}
}

// worker is one goroutine's burst-processing state: the fastPath decode
// scratch plus the deferred-work queues that let a burst pay once for what
// the per-packet path pays per frame — next-hop route resolution and sends,
// state-lock begin/commit, retransmission-buffer appends, and commit
// dissemination.
type worker struct {
	fp fastPath
	in []netsim.Inbound // drain landing zone, len == cfg.maxBurst()

	out []([]byte) // trailered frames awaiting the flush to the next hop
	egr []([]byte) // finalized frames awaiting the flush to egress
	rel []([]byte) // frames to recycle once the flush has copied them out

	batch state.Batch // head packet transactions; flushed per burst

	headLogs []Log // head retransmission-buffer appends, one addAll per burst
	pendF    []*Follower
	pendL    []Log // follower appends; pendF[i] buffers pendL[i]

	co    coalescer // open coalesced run (diet mode); never spans a flush
	spill []Log     // over-budget logs awaiting the spillover RPC at the flush
	xfer  []Log     // buffer-transfer scratch: logs minus elided markers

	last      bool // processing the burst's final frame (flush boundary)
	dissemDue bool // a commitEvery tick fired; disseminate at the boundary
}

func (r *Replica) newWorker() *worker {
	w := &worker{in: make([]netsim.Inbound, r.cfg.maxBurst())}
	if r.head != nil {
		w.batch = r.head.Store().NewBatch()
	}
	return w
}

// handleBurst runs one received burst through the pipeline and flushes the
// deferred work at its boundary. A burst of 1 (partial or Burst=1 config)
// flushes immediately after its only frame, reproducing per-packet behavior
// exactly — bursting never adds a latency floor.
func (r *Replica) handleBurst(w *worker, n int) {
	w.fp.dec.BeginBurst()
	if r.head != nil {
		// Fetch gate, held burst-wide: the batch keeps partition locks
		// between transactions, so a per-transaction read lock could deadlock
		// against a pending fetch writer. flushBurst releases it once the
		// burst's logs are in the retransmission buffer and the batch has
		// flushed — the earliest point a fetch sees a consistent cut.
		r.head.fetchMu.RLock()
	}
	for i := 0; i < n; i++ {
		w.last = i == n-1
		if !r.handleFrame(w.in[i], &w.fp, w) {
			w.rel = append(w.rel, w.in[i].Frame)
		}
	}
	r.flushBurst(w)
}

// flushBurst drains the worker's deferred queues: one burst send per
// destination, one lock acquisition per retransmission buffer, one state
// batch flush, one buffer-release scan. Frames recycle only after the burst
// sends have copied them into the fabric.
func (r *Replica) flushBurst(w *worker) {
	r.settleBurst(w)
	if r.head != nil {
		// End of the fetch gate (see handleBurst). Must drop before
		// maybeExpire: the expiry transaction re-enters the read lock, which
		// deadlocks if a fetch writer is already queued behind this burst.
		r.head.fetchMu.RUnlock()
	}
	if len(w.spill) > 0 {
		r.spillLogs(w.spill)
		clearLogs(&w.spill)
	}
	if r.expiryOn {
		// Flow aging rides the burst cadence: no extra goroutine touches
		// the data path, and expiry deletions enter the same log → commit →
		// release machinery as packet writes.
		r.maybeExpire()
	}
	if r.buf != nil {
		r.maybeRelease()
	}
	for _, fr := range w.rel {
		netsim.ReleaseFrame(fr)
	}
	clearFrames(&w.rel)
}

// settleBurst is the part of the flush that the fetch gate covers: the
// open run closes, frames go out, logs reach the retransmission buffers and
// the batch releases its partition locks. After it the head's vector,
// buffer and store form the consistent cut a recovery fetch reads, so a
// worker parked mid-burst runs it before dropping the gate.
func (r *Replica) settleBurst(w *worker) {
	// Safety net for the coalescer: a run is normally closed onto the
	// burst's last data packet, but if that frame never reached the
	// transaction stage (parse error, stale gen, buffer transfer), or the
	// worker parked mid-burst, the run is still open here and rides its own
	// propagating carrier.
	r.flushRun(w)
	if len(w.out) > 0 {
		if next := r.nextHop(); next != "" {
			if err := r.sim.SendBurstBlocking(next, w.out); err == nil {
				r.stats.TxFrames.Add(uint64(len(w.out)))
			}
		}
		clearFrames(&w.out)
	}
	if len(w.egr) > 0 {
		if r.egress == "" {
			r.stats.Egress.Add(uint64(len(w.egr)))
		} else if err := r.sim.SendBurstBlocking(r.egress, w.egr); err == nil {
			r.stats.Egress.Add(uint64(len(w.egr)))
		}
		clearFrames(&w.egr)
	}
	if len(w.headLogs) > 0 {
		r.head.Buffer().addAll(w.headLogs)
		clearLogs(&w.headLogs)
	}
	for i := 0; i < len(w.pendL); {
		f := w.pendF[i]
		j := i + 1
		for j < len(w.pendL) && w.pendF[j] == f {
			j++
		}
		f.buf.addAll(w.pendL[i:j])
		i = j
	}
	if len(w.pendL) > 0 {
		clearLogs(&w.pendL)
		for i := range w.pendF {
			w.pendF[i] = nil
		}
		w.pendF = w.pendF[:0]
	}
	if w.batch != nil {
		w.batch.Flush()
	}
}

// clearFrames truncates a frame list, zeroing entries so recycled buffers
// are not pinned between bursts.
func clearFrames(s *[][]byte) {
	for i := range *s {
		(*s)[i] = nil
	}
	*s = (*s)[:0]
}

// clearLogs truncates a log list, zeroing entries so retained Vec/Updates
// arrays are not pinned between bursts.
func clearLogs(s *[]Log) {
	for i := range *s {
		(*s)[i] = Log{}
	}
	*s = (*s)[:0]
}

// Stop terminates the replica's goroutines. The underlying fabric node is
// left intact (use Crash on the netsim node to fail-stop it).
func (r *Replica) Stop() {
	r.stopOnce.Do(func() {
		close(r.stopped)
		r.sim.Crash()
	})
	r.wg.Wait()
}

// nextHop returns the fabric ID of the next ring node, or "" on the last.
func (r *Replica) nextHop() netsim.NodeID {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	if r.idx+1 < len(r.ringIDs) {
		return r.ringIDs[r.idx+1]
	}
	return ""
}

func (r *Replica) ringID(i int) netsim.NodeID {
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	return r.ringIDs[i]
}

// SetRoute updates the fabric ID of ring position i (recovery rerouting).
func (r *Replica) SetRoute(i int, id netsim.NodeID) {
	r.routeMu.Lock()
	if i >= 0 && i < len(r.ringIDs) {
		r.ringIDs[i] = id
	}
	r.routeMu.Unlock()
}

// fastPath is the per-worker scratch state that makes steady-state frame
// handling allocation-free: the packet view, the piggyback decode arenas,
// and the ingress message header are all reused across frames. One worker
// goroutine owns each fastPath; none of it is shared.
type fastPath struct {
	pkt     wire.Packet
	dec     MsgScratch
	ingress Message // reused header for raw-ingress packets
}

// handleFrame runs one inbound frame through the replica pipeline. It
// reports whether some stage retained ownership of in.Frame (only the
// egress buffer does, when it holds the packet); unretained frames go back
// to the frame pool. With a non-nil worker, sends and buffer appends are
// deferred to the burst flush; with nil they happen inline (per-packet
// callers: propagateLoop, tests).
func (r *Replica) handleFrame(in netsim.Inbound, fp *fastPath, w *worker) bool {
	r.stats.RxFrames.Add(1)
	pkt := &fp.pkt
	if err := wire.ParseInto(pkt, in.Frame); err != nil {
		r.stats.ParseErrors.Add(1)
		return false
	}
	var msg *Message
	if tr := pkt.Trailer(); tr != nil {
		m, err := fp.dec.Decode(tr)
		if err != nil {
			r.stats.ParseErrors.Add(1)
			return false
		}
		msg = m
	}
	gen := r.gen.Load()
	if msg == nil {
		// External ingress: only the forwarder admits raw packets.
		if r.fwd == nil {
			r.stats.ParseErrors.Add(1)
			return false
		}
		logs, commits := r.fwd.take(time.Now(), r.cfg.ResendAfter, r.cfg.PiggybackBudget)
		msg = &fp.ingress
		// Copy into the reused ingress arrays so the head-log append below
		// stays within amortized capacity instead of reallocating per packet.
		msg.Ver = r.ver
		msg.Flags = 0
		msg.FullValues = false
		msg.Gen = gen
		msg.Logs = append(msg.Logs[:0], logs...)
		msg.Commits = append(msg.Commits[:0], commits...)
		if err := pkt.InsertFTCOption(); err != nil {
			r.stats.ParseErrors.Add(1)
			return false
		}
	} else {
		if msg.Gen != gen {
			r.stats.StaleGen.Add(1)
			return false
		}
		if msg.Flags&FlagBufferTransfer != 0 {
			if r.fwd != nil {
				r.fwd.addTransfer(msg)
				r.pruneFromCommits(msg.Commits)
			}
			return false
		}
	}
	held := r.processPacket(pkt, msg, w)
	// The buffer held pkt.Buf; in.Frame is retained only if they are still
	// the same array (an in-header insert or trailer append can reallocate,
	// leaving in.Frame free to recycle while the buffer owns the copy).
	return held && len(in.Frame) > 0 && len(pkt.Buf) > 0 && &pkt.Buf[0] == &in.Frame[0]
}

// processPacket runs the full §5.1 pipeline for one packet at this replica.
// It reports whether the egress buffer took ownership of pkt.Buf. A non-nil
// worker defers sends, state commits, and buffer appends to the burst flush.
func (r *Replica) processPacket(pkt *wire.Packet, msg *Message, w *worker) bool {
	// 1. Commit vectors: merge for pruning and buffer release. A commit
	// rides the full ring — through the buffer→forwarder transfer when the
	// group wraps — so every member and the buffer see it; it retires when
	// it arrives back at the tail that mints it.
	r.mergeCommits(msg.Commits)
	kept := msg.Commits[:0]
	for _, c := range msg.Commits {
		if r.ring.IsTail(r.idx, int(c.MB)) {
			continue
		}
		kept = append(kept, c)
	}
	msg.Commits = kept

	// 2. Piggyback logs: replicate in dependency order; tails strip the log
	// they have just replicated for the f+1'th time. Burst workers sink the
	// retransmission-buffer appends for a one-pass flush at the boundary.
	var sink *[]Log
	if w != nil {
		sink = &w.pendL
	}
	keptLogs := msg.Logs[:0]
	for _, l := range msg.Logs {
		if l.Elided() {
			// Vector-only marker: the substance travels on another packet (a
			// coalesced run or the spillover RPC). Nothing to apply and never
			// stripped — the marker rides to the egress buffer, gates the
			// packet's release against the commit vector, and dies there.
			keptLogs = append(keptLogs, l)
			continue
		}
		if r.head != nil && l.MB == r.head.MB() {
			continue // our own log completed the loop (only when wrapped and repair raced)
		}
		f := r.followers[l.MB]
		if f == nil {
			keptLogs = append(keptLogs, l) // passing through (not in this group)
			continue
		}
		out := f.apply(l, msg.Gen, sink)
		if out == Blocked {
			out = r.parkApply(f, l, msg.Gen, sink, w)
		}
		r.pendFor(w, f)
		if out == Fenced {
			// A recovery restored this log's middlebox from a cut that
			// excludes it: the packet belongs to the replaced lineage.
			r.stats.StaleGen.Add(1)
			return false
		}
		if out == Blocked {
			if r.gen.Load() != msg.Gen {
				// A recovery moved the chain on while the log waited: the
				// packet is stale, as it would be on arrival now.
				r.stats.StaleGen.Add(1)
				return false
			}
			r.stats.ApplyTimeouts.Add(1)
			keptLogs = append(keptLogs, l)
			continue
		}
		if r.ring.IsTail(r.idx, int(l.MB)) {
			continue // f+1 times replicated; strip (§5.1)
		}
		keptLogs = append(keptLogs, l)
	}
	msg.Logs = keptLogs

	// 3. The packet transaction (data packets only; propagating packets are
	// never handed to middleboxes, §5.1). Burst workers run it through their
	// state batch, so consecutive packets touching the same partitions pay
	// one lock acquisition, and defer the retransmission-buffer append.
	if r.head != nil && !msg.Propagating() {
		var verdict Verdict
		fn := func(tx state.Txn) error {
			v, perr := r.mb.Process(pkt, tx)
			verdict = v
			return perr
		}
		var log Log
		var err error
		batching := w != nil && w.batch != nil
		if batching {
			log, err = r.head.TransactionBatch(w.batch, fn)
		} else {
			log, err = r.head.Transaction(fn)
		}
		if err != nil {
			r.stats.MBErrors.Add(1)
			verdict = Drop
			log = Log{MB: r.head.MB(), Flags: LogNoop}
		}
		if r.diet && batching {
			r.attachDiet(msg, log, w, w.last || verdict == Drop)
		} else {
			if batching && err == nil && !log.Noop() {
				w.headLogs = append(w.headLogs, log)
			}
			if batching && !log.Noop() && r.overBudget(msg, &log) {
				// Over the byte budget: only the dependency vector rides (to
				// gate release at the egress buffer); the updates go to the
				// group followers over the spillover RPC at the flush.
				msg.Logs = append(msg.Logs, Log{MB: log.MB, Flags: log.Flags | LogElided, Vec: log.Vec})
				w.spill = append(w.spill, log)
			} else {
				msg.Logs = append(msg.Logs, log)
			}
		}
		if verdict == Drop {
			r.stats.Filtered.Add(1)
			// The filtered packet's piggyback message continues on a
			// propagating packet generated by this head (§5.1).
			msg.Flags |= FlagPropagating
			r.emitPropagating(msg, w)
			return false
		}
	}

	// 4. Tail duty: announce the latest f+1-replicated prefix. The tail
	// disseminates "periodically" (§4.1): every commitEvery'th packet and on
	// every propagating packet, so idle chains still make release progress
	// without paying a full MAX snapshot per packet. Burst workers collapse
	// the check to the burst boundary: ticks accumulate per packet, but the
	// MAX snapshot rides the burst's last packet. With Burst=1 every packet
	// is a boundary, which is exactly the per-packet schedule. Between
	// ticks, CommitRefresh bounds staleness in time; such a refresh carries
	// only the vectors that advanced since this tail last announced them,
	// so a read-mostly group's vector is not resent unchanged on every
	// packet. The tick and propagating packets still carry every vector, so
	// a lost announcement is repeated.
	if len(r.tails) > 0 {
		disseminate := msg.Propagating()
		all := disseminate
		if !disseminate {
			tick := r.tailTick.Add(1)%commitEvery == 1
			if w == nil {
				all = tick
				disseminate = tick || r.commitStale()
			} else {
				if tick {
					w.dissemDue = true
				}
				if w.last && (w.dissemDue || r.commitStale()) {
					disseminate, all = true, w.dissemDue
					w.dissemDue = false
				}
			}
		}
		if disseminate {
			// Under explicit placement a node can tail several groups; each
			// gets its commit minted here (the arithmetic layout has at most
			// one).
			for _, j := range r.tails {
				var dense []uint64
				if f := r.followers[uint16(j)]; f != nil {
					dense = f.Max()
				} else if r.head != nil && int(r.head.MB()) == j {
					dense = r.head.Vector() // F == 0: the head is its own tail
				}
				if dense != nil && (all || r.commitAdvanced(uint16(j), dense)) {
					sv := SparseFromDense(dense)
					r.mergeCommit(uint16(j), sv)
					msg.Commits = append(msg.Commits, Commit{MB: uint16(j), Vec: sv})
				}
			}
		}
	}

	// 5. Forward along the chain, or run the buffer at the chain's end.
	if r.buf != nil {
		return r.bufferStage(pkt, msg, w)
	}
	r.forward(pkt, msg, w)
	return false
}

func (r *Replica) forward(pkt *wire.Packet, msg *Message, w *worker) {
	// Encode the trailer by appending straight onto the frame: no
	// intermediate body buffer, and on pooled frames with headroom no
	// allocation at all.
	pre := len(pkt.Buf)
	if err := pkt.AppendTrailer(msg); err != nil {
		r.stats.ParseErrors.Add(1)
		return
	}
	r.stats.WireBytesOut.Add(uint64(len(pkt.Buf)))
	r.stats.PiggybackBytesOut.Add(uint64(len(pkt.Buf) - pre))
	if !msg.Propagating() {
		r.stats.AppBytesOut.Add(uint64(pre))
	} else {
		// Carrier frames are pure replication overhead, template included.
		r.stats.PiggybackBytesOut.Add(uint64(pre))
	}
	if w != nil {
		// Burst path: the frame joins the worker's outgoing burst; the
		// route resolves once for all of them at the flush.
		w.out = append(w.out, pkt.Buf)
		return
	}
	next := r.nextHop()
	if next == "" {
		return
	}
	// Blocking send: pipeline stages exert flow control on each other, like
	// the paper's DPDK rings — overload drops happen at the chain ingress,
	// never between replicas (which would cost repair round trips).
	if err := r.sim.SendBlocking(next, pkt.Buf); err == nil {
		r.stats.TxFrames.Add(1)
	}
}

// pendFor records f as the follower whose buffer takes the logs the worker
// has sunk since the last call.
func (r *Replica) pendFor(w *worker, f *Follower) {
	for w != nil && len(w.pendF) < len(w.pendL) {
		w.pendF = append(w.pendF, f)
	}
}

// parkApply waits out a follower log that arrived in generation gen and
// is blocked on a missing predecessor, repairing from the group
// predecessor meanwhile. A burst worker holds its head's fetch gate, so it
// settles the burst so far and lets a recovery fetch through while parked.
func (r *Replica) parkApply(f *Follower, l Log, gen uint32, sink *[]Log, w *worker) ApplyOutcome {
	p := &parking{gen: &r.gen, want: gen}
	if w != nil && r.head != nil {
		p.gate = &r.head.fetchMu
		// A partly installed run has sunk its installed part: pair it with
		// f before the settle flushes the burst's follower logs.
		p.settle = func() { r.pendFor(w, f); r.settleBurst(w) }
	}
	mb := l.MB
	return f.park(l, r.cfg.RepairEvery, func() { r.repair(mb, f) }, r.cfg.RepairDeadline, sink, p)
}

// attachDiet routes a burst transaction's log through the diet machinery
// (burst workers only): write logs feed the worker's coalescer and ride the
// packet as elided vector-only markers; the coalesced run closes onto the
// burst's last data packet, onto the current packet when another worker
// interleaves a transaction on a shared partition, or onto the spillover
// path when the byte budget is hit. closing forces the run out now — the
// burst's final frame, or a Drop verdict about to divert the message onto a
// propagating carrier.
func (r *Replica) attachDiet(msg *Message, log Log, w *worker, closing bool) {
	if log.Noop() || len(log.Vec) == 0 {
		// Noops install nothing; their vector only gates this packet's
		// release. They ride elided — a full noop log would carry observed
		// sequence numbers of coalesced writes not yet shipped, blocking
		// followers — and a vec-less noop (error fallback) gates nothing, so
		// it leaves the wire entirely.
		if len(log.Vec) > 0 {
			msg.Logs = append(msg.Logs, Log{MB: log.MB, Flags: log.Flags | LogElided, Vec: log.Vec})
		}
		if closing {
			r.closeRun(msg, w)
		}
		return
	}
	if !w.co.absorb(&log) {
		r.closeRun(msg, w) // interleaved writer: the run can't extend; close it here
		w.co.absorb(&log)
	}
	if closing {
		r.closeRun(msg, w) // the run — including this transaction — rides this packet
		return
	}
	msg.Logs = append(msg.Logs, Log{MB: log.MB, Flags: LogElided, Vec: log.Vec})
}

// closeRun finalizes the worker's open coalesced run onto msg — or, when it
// would blow the packet's byte budget, onto the spillover path with only an
// elided marker left on the packet to gate its release.
func (r *Replica) closeRun(msg *Message, w *worker) {
	if !w.co.active {
		return
	}
	run := w.co.finalize()
	w.headLogs = append(w.headLogs, run)
	if r.overBudget(msg, &run) {
		msg.Logs = append(msg.Logs, Log{MB: run.MB, Flags: LogElided, Vec: run.Vec})
		w.spill = append(w.spill, run)
		return
	}
	msg.Logs = append(msg.Logs, run)
}

// flushRun closes a run still open at the burst flush (the last frame never
// reached the transaction stage) onto its own propagating carrier. Each of
// the run's transactions already left an elided marker on its data packet,
// so release gating is covered; only the substance needs a ride.
func (r *Replica) flushRun(w *worker) {
	if !w.co.active {
		return
	}
	run := w.co.finalize()
	w.headLogs = append(w.headLogs, run)
	if b := r.cfg.PiggybackBudget; b > 0 && 16+logLenEstimate(&run) > b {
		w.spill = append(w.spill, run) // too big even for a carrier frame
		return
	}
	msg := &Message{Ver: r.ver, Gen: r.gen.Load(), Logs: []Log{run}}
	r.emitPropagating(msg, w)
}

// overBudget reports whether attaching l would push the packet's piggyback
// trailer past Config.PiggybackBudget.
func (r *Replica) overBudget(msg *Message, l *Log) bool {
	b := r.cfg.PiggybackBudget
	if b <= 0 {
		return false
	}
	return msg.LenEstimate()+logLenEstimate(l) > b
}

// spillLogs pushes over-budget logs of this node's own middlebox to its
// group followers over the spillover RPC, full values forced (a spilled
// delta would need receiver context the RPC path does not guarantee).
// Failures are ignored: the logs sit in the head's retransmission buffer,
// and the resend loop re-pushes anything whose commits stall.
func (r *Replica) spillLogs(logs []Log) {
	if r.head == nil || len(logs) == 0 {
		return
	}
	mb := int(r.head.MB())
	msg := &Message{Ver: r.ver, FullValues: true, Gen: r.gen.Load(), Logs: logs}
	body := msg.Encode(nil)
	r.stats.SpilledLogs.Add(uint64(len(logs)))
	members := r.ring.Members(mb)
	for _, m := range members[1:] {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := r.fabric.Call(ctx, r.sim.ID(), r.ringID(m), rpcSpill, body)
		cancel()
		if err == nil {
			r.stats.WireBytesOut.Add(uint64(len(body)))
			r.stats.PiggybackBytesOut.Add(uint64(len(body)))
		}
	}
}

// mergeCommit folds a commit vector into the replica's view. Retransmission
// buffers are pruned on an amortized schedule: commits arrive on every
// packet, but an O(buffer) scan per packet would dominate the data plane
// (the paper prunes "periodically", §4.1).
// commitAdvanced reports whether dense commits anything this replica has
// not yet seen committed for mb.
func (r *Replica) commitAdvanced(mb uint16, dense []uint64) bool {
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	seen := r.commitSeen[mb]
	for p, seq := range dense {
		if p >= len(seen) || seq > seen[p] {
			return true
		}
	}
	return false
}

func (r *Replica) mergeCommit(mb uint16, v SparseVec) {
	r.commitMu.Lock()
	seen, ok := r.commitSeen[mb]
	if !ok {
		seen = make([]uint64, r.cfg.Partitions)
		r.commitSeen[mb] = seen
	}
	for _, e := range v {
		if int(e.Part) < len(seen) && e.Seq > seen[e.Part] {
			seen[e.Part] = e.Seq
		}
	}
	if r.buf != nil {
		// Any middlebox's commit can unblock held packets: elided markers
		// gate release on every group, not just wrapped ones.
		r.releaseDirty.Store(true)
	}
	r.pruneTick[mb]++
	due := r.pruneTick[mb] >= 128
	if due {
		r.pruneTick[mb] = 0
	}
	var snapshot []uint64
	if due {
		snapshot = CloneDense(seen)
	}
	r.commitMu.Unlock()
	if !due {
		return
	}
	if r.head != nil && r.head.MB() == mb {
		r.head.Buffer().Prune(snapshot)
	}
	if f := r.followers[mb]; f != nil {
		f.Prune(snapshot)
	}
}

// mergeCommits folds a whole message's commit vectors into the replica's
// view under a single commitMu acquisition (mergeCommit pays one per
// vector). Due prunes are collected under the lock and executed outside it,
// preserving mergeCommit's lock ordering.
func (r *Replica) mergeCommits(commits []Commit) {
	if len(commits) == 0 {
		return
	}
	var dueMB []uint16
	var dueSnap [][]uint64
	r.commitMu.Lock()
	for _, c := range commits {
		seen, ok := r.commitSeen[c.MB]
		if !ok {
			seen = make([]uint64, r.cfg.Partitions)
			r.commitSeen[c.MB] = seen
		}
		for _, e := range c.Vec {
			if int(e.Part) < len(seen) && e.Seq > seen[e.Part] {
				seen[e.Part] = e.Seq
			}
		}
		if r.buf != nil {
			r.releaseDirty.Store(true) // see mergeCommit
		}
		r.pruneTick[c.MB]++
		if r.pruneTick[c.MB] >= 128 {
			r.pruneTick[c.MB] = 0
			dueMB = append(dueMB, c.MB)
			dueSnap = append(dueSnap, CloneDense(seen))
		}
	}
	r.commitMu.Unlock()
	for i, mb := range dueMB {
		if r.head != nil && r.head.MB() == mb {
			r.head.Buffer().Prune(dueSnap[i])
		}
		if f := r.followers[mb]; f != nil {
			f.Prune(dueSnap[i])
		}
	}
}

func (r *Replica) pruneFromCommits(commits []Commit) {
	r.mergeCommits(commits)
}

func (r *Replica) commitSnapshot(mb uint16) []uint64 {
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	return CloneDense(r.commitSeen[mb])
}

// repair fetches missing logs for middlebox mb from this replica's group
// predecessor (§4.1: "a replica requests its predecessor to retransmit").
func (r *Replica) repair(mb uint16, f *Follower) {
	pred := r.ring.PredecessorInGroup(r.idx, int(mb))
	if pred < 0 {
		return
	}
	r.stats.Repairs.Add(1)
	req := encodeRepairReq(mb, f.Max())
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	resp, err := r.fabric.Call(ctx, r.sim.ID(), r.ringID(pred), rpcRepair, req)
	if err != nil {
		return
	}
	m, err := DecodeMessage(resp)
	if err != nil {
		return
	}
	for _, l := range m.Logs {
		switch f.apply(l, m.Gen, nil) {
		case Applied:
			r.stats.RepairedLogs.Add(1)
		case Duplicate:
			r.stats.Duplicates.Add(1)
		}
	}
}

// emitPropagating sends msg through the rest of the chain on a synthetic
// packet (idle-timer propagation, filtered packets, §5.1).
func (r *Replica) emitPropagating(msg *Message, w *worker) {
	msg.Flags |= FlagPropagating
	pkt := r.carrierFrom(msg.LenEstimate())
	r.stats.Propagating.Add(1)
	if r.buf != nil {
		// Last node: the propagating content goes straight to the buffer
		// stage (nothing further down the chain). Propagating packets are
		// never held, so the carrier frame is ours to recycle.
		r.bufferStage(pkt, msg, w)
		netsim.ReleaseFrame(pkt.Buf)
		return
	}
	r.forward(pkt, msg, w)
	if w != nil {
		// The carrier sits in the worker's outgoing burst until the flush
		// copies it into the fabric; recycle it after that.
		w.rel = append(w.rel, pkt.Buf)
		return
	}
	netsim.ReleaseFrame(pkt.Buf)
}

// propagateLoop is the forwarder's idle timer (§5.1): when traffic pauses,
// pending piggyback state still flows through the chain.
func (r *Replica) propagateLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.PropagateEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stopped:
			return
		case <-t.C:
			if r.sim.Crashed() {
				// Fail-stopped but never Stop()ed (the chain replaced this
				// replica): exit rather than tick forever.
				return
			}
			// Drain the whole pending backlog in bounded batches so a
			// traffic burst's worth of wrapped logs replicates promptly.
			for {
				logs, commits := r.fwd.take(time.Now(), r.cfg.ResendAfter, r.cfg.PiggybackBudget)
				if len(logs) == 0 && len(commits) == 0 {
					break
				}
				msg := &Message{Ver: r.ver, Gen: r.gen.Load(), Flags: FlagPropagating, Logs: logs, Commits: commits}
				r.processPacket(mustCarrier(), msg, nil)
				if len(logs) < takeBatch {
					break
				}
			}
		}
	}
}

// resendLoop is the head's anti-entropy timer. A head's logs normally ride
// data packets, so a frame lost between adjacent servers (a crashed
// successor not yet routed around) leaves followers with no signal that
// anything is missing once traffic pauses: repair is pull-based and only
// triggers when a later log arrives out of order. The loop watches the
// commit vector for the head's own middlebox; if it stalls behind the
// dependency vector for a full ResendAfter with no progress, the unpruned
// uncommitted logs are re-emitted on propagating carriers (followers
// suppress duplicates via their MAX vectors).
func (r *Replica) resendLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.ResendAfter)
	defer t.Stop()
	mb := r.head.MB()
	var lastSum uint64
	stale := false // one full interval of lag must elapse before resending
	for {
		select {
		case <-r.stopped:
			return
		case <-t.C:
			if r.sim.Crashed() {
				return // replaced after a crash; never Stop()ed
			}
			if r.expiryOn {
				r.maybeExpire() // idle chains still age flows out
			}
			commit := r.commitSnapshot(mb)
			vec := r.head.Vector()
			var sum uint64
			lag := false
			for p := range vec {
				sum += commit[p]
				if commit[p] < vec[p] {
					lag = true
				}
			}
			if !lag || sum > lastSum {
				// Caught up, or commits still flowing: not wedged.
				lastSum = sum
				stale = false
				continue
			}
			if !stale {
				stale = true
				continue
			}
			stale = false
			// Push only the frontier: the oldest takeBatch missing logs.
			// If the stall is real loss, one batch fills the gap and commits
			// resume; if replication is merely slow (a large backlog under
			// contention), flooding every unpruned log would outrun the
			// drain and balloon the forwarder's pending set.
			logs := r.head.Buffer().Missing(commit)
			if len(logs) > takeBatch {
				logs = logs[:takeBatch]
			}
			if b := r.cfg.PiggybackBudget; b > 0 {
				// Oversize logs cannot ride a carrier frame (it is a data
				// frame, MTU applies); re-push those over the spillover RPC.
				carry := logs[:0]
				var oversize []Log
				for _, l := range logs {
					if 16+logLenEstimate(&l) > b {
						oversize = append(oversize, l)
					} else {
						carry = append(carry, l)
					}
				}
				logs = carry
				r.spillLogs(oversize)
			}
			if len(logs) > 0 {
				msg := &Message{Ver: r.ver, Gen: r.gen.Load(), Logs: logs}
				r.emitPropagating(msg, nil)
			}
		}
	}
}

// expiryNow reads the expiry clock (Config.ExpiryClock or wall time).
func (r *Replica) expiryNow() int64 {
	if r.cfg.ExpiryClock != nil {
		return r.cfg.ExpiryClock()
	}
	return time.Now().UnixNano()
}

// maybeExpire runs one throttled expiry scan at the head. Callers are the
// burst boundary and the resend tick; the CAS keeps concurrent workers from
// duplicating the scan (same pattern as commitStale).
func (r *Replica) maybeExpire() {
	now := r.expiryNow()
	last := r.lastExpiry.Load()
	if now-last < int64(r.cfg.ExpiryEvery) {
		return
	}
	if !r.lastExpiry.CompareAndSwap(last, now) {
		return
	}
	r.expireOnce(now)
}

// expireOnce turns up to ExpiryBatch due keys into one replicated deletion
// transaction and emits its log on a propagating carrier, so expiry flows
// through the normal log → commit → release machinery and follower stores
// converge to the head's. DeleteExpired re-validates each key under the
// transaction: a flow refreshed between collection and commit survives.
// Returns the number of deletions installed.
func (r *Replica) expireOnce(now int64) int {
	r.expMu.Lock()
	defer r.expMu.Unlock()
	st := r.head.Store()
	keys := st.CollectExpired(now, r.cfg.ExpiryBatch, r.expKeys[:0])
	r.expKeys = keys[:0]
	if len(keys) == 0 {
		return 0
	}
	deleted := 0
	log, err := r.head.Transaction(func(tx state.Txn) error {
		deleted = 0 // reset on wound-wait/OCC re-execution
		et, _ := tx.(state.ExpiryTxn)
		for _, k := range keys {
			if et != nil {
				ok, err := et.DeleteExpired(k, now)
				if err != nil {
					return err
				}
				if ok {
					deleted++
				}
			} else {
				if err := tx.Delete(k); err != nil {
					return err
				}
				deleted++
			}
		}
		return nil
	})
	if err != nil || log.Noop() {
		return 0
	}
	msg := &Message{Ver: r.ver, Gen: r.gen.Load(), Logs: []Log{log}}
	r.emitPropagating(msg, nil)
	return deleted
}

// ExpireNow synchronously drains every due key at this replica's head,
// looping until the TTL wheels report nothing further. Tests and the chaos
// harness use it (via Chain.TriggerExpiry) to force deterministic expiry
// after advancing a manual expiry clock; production aging runs through
// maybeExpire on the burst/resend cadence instead. Returns deletions
// installed.
func (r *Replica) ExpireNow() int {
	if r.head == nil || !r.expiryOn {
		return 0
	}
	total := 0
	for {
		n := r.expireOnce(r.expiryNow())
		total += n
		if n == 0 {
			return total
		}
	}
}

// commitEvery throttles tail commit dissemination and the buffer's
// commit-view transfers to once per this many packets; Config.CommitRefresh
// bounds the staleness in time at low rates.
const commitEvery = 16

// commitStale reports (and refreshes) whether the time-based commit
// dissemination deadline has passed.
func (r *Replica) commitStale() bool {
	now := time.Now().UnixNano()
	last := r.lastCommit.Load()
	if now-last < int64(r.cfg.CommitRefresh) {
		return false
	}
	return r.lastCommit.CompareAndSwap(last, now)
}

// carrierTemplate returns the replica's prebuilt carrier frame (built once;
// the lazy init used to race when two workers emitted carriers at once).
func (r *Replica) carrierTemplate() []byte {
	r.carrierOnce.Do(func() { r.carrier = mustCarrier().Buf })
	return r.carrier
}

// carrierFrom builds a carrier packet from the replica's prebuilt template
// on a pooled frame sized for the trailer, avoiding a full header build +
// checksum + allocation per control frame. The caller owns the frame and
// recycles it via netsim.ReleaseFrame once it is copied into the fabric.
func (r *Replica) carrierFrom(trailerCap int) *wire.Packet {
	tmpl := r.carrierTemplate()
	buf := netsim.AcquireFrame(len(tmpl) + trailerCap + 8)[:len(tmpl)]
	copy(buf, tmpl)
	p, err := wire.Parse(buf)
	if err != nil {
		panic("core: carrier template unparseable: " + err.Error())
	}
	return p
}

func buildCarrierPacket() (*wire.Packet, error) {
	return wire.BuildUDP(wire.UDPSpec{
		SrcMAC:  wire.MAC{0x02, 0xf7, 0xc0, 0, 0, 1},
		DstMAC:  wire.MAC{0x02, 0xf7, 0xc0, 0, 0, 2},
		Src:     wire.Addr4(169, 254, 0, 1), // link-local: never routed outside
		Dst:     wire.Addr4(169, 254, 0, 2),
		SrcPort: 0xF7C0, DstPort: 0xF7C0,
		Headroom: 256,
	})
}

func mustCarrier() *wire.Packet {
	p, err := buildCarrierPacket()
	if err != nil {
		panic("core: carrier packet build failed: " + err.Error())
	}
	return p
}

// HeldPackets reports how many packets the buffer currently holds (last
// node only; 0 elsewhere).
func (r *Replica) HeldPackets() int {
	if r.buf == nil {
		return 0
	}
	return r.buf.len()
}
