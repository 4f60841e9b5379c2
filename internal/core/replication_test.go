package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/state"
)

func headFollower(parts int) (*Head, *Follower) {
	return NewHead(0, state.New(parts)), NewFollower(0, state.New(parts))
}

func TestHeadTransactionProducesLog(t *testing.T) {
	h, _ := headFollower(16)
	log, err := h.Transaction(func(tx state.Txn) error {
		return tx.Put("k", []byte("v"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if log.Noop() {
		t.Fatal("write txn produced noop log")
	}
	if len(log.Updates) != 1 || log.Updates[0].Key != "k" {
		t.Fatalf("updates = %+v", log.Updates)
	}
	p := h.Store().PartitionOf("k")
	if log.Vec.Get(p) != 0 {
		t.Fatalf("first txn pre-seq = %d, want 0", log.Vec.Get(p))
	}
	if h.Vector()[p] != 1 {
		t.Fatalf("head vector = %d, want 1", h.Vector()[p])
	}
	if h.Buffer().Len() != 1 {
		t.Fatal("log not buffered for retransmission")
	}
}

func TestHeadReadOnlyNoop(t *testing.T) {
	h, _ := headFollower(16)
	h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte("v")) })
	log, err := h.Transaction(func(tx state.Txn) error {
		_, _, err := tx.Get("k")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !log.Noop() || len(log.Updates) != 0 {
		t.Fatalf("read-only log = %+v", log)
	}
	p := h.Store().PartitionOf("k")
	// Noop carries the observed (current) value and does not advance.
	if log.Vec.Get(p) != 1 {
		t.Fatalf("noop vec = %d, want 1", log.Vec.Get(p))
	}
	if h.Vector()[p] != 1 {
		t.Fatal("read-only txn advanced the head vector")
	}
	if h.Buffer().Len() != 1 {
		t.Fatal("noop log must not be buffered")
	}
}

func TestHeadSequencesPerPartitionMonotone(t *testing.T) {
	h, _ := headFollower(8)
	seen := map[uint16]uint64{}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%d", i%4)
		log, err := h.Transaction(func(tx state.Txn) error { return tx.Put(k, []byte{byte(i)}) })
		if err != nil {
			t.Fatal(err)
		}
		p := h.Store().PartitionOf(k)
		got := log.Vec.Get(p)
		if want, ok := seen[p]; ok && got != want {
			t.Fatalf("partition %d: pre-seq %d, want %d", p, got, want)
		}
		seen[p] = got + 1
	}
}

func TestFollowerAppliesInOrder(t *testing.T) {
	h, f := headFollower(16)
	var logs []Log
	for i := 0; i < 10; i++ {
		log, _ := h.Transaction(func(tx state.Txn) error {
			return tx.Put("k", []byte{byte(i)})
		})
		logs = append(logs, log)
	}
	for _, l := range logs {
		if out := f.Apply(l); out != Applied {
			t.Fatalf("apply = %v", out)
		}
	}
	v, ok := f.Store().Get("k")
	if !ok || v[0] != 9 {
		t.Fatalf("follower state = %v %v", v, ok)
	}
}

func TestFollowerBlocksOutOfOrder(t *testing.T) {
	h, f := headFollower(16)
	l1, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{1}) })
	l2, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{2}) })
	if out := f.Apply(l2); out != Blocked {
		t.Fatalf("out-of-order apply = %v", out)
	}
	if out := f.Apply(l1); out != Applied {
		t.Fatalf("in-order apply = %v", out)
	}
	if out := f.Apply(l2); out != Applied {
		t.Fatalf("retry apply = %v", out)
	}
	if out := f.Apply(l1); out != Duplicate {
		t.Fatalf("duplicate apply = %v", out)
	}
}

func TestFollowerNoopGating(t *testing.T) {
	h, f := headFollower(16)
	w, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{1}) })
	r, _ := h.Transaction(func(tx state.Txn) error { _, _, err := tx.Get("k"); return err })
	// The read observed the write; its noop log must block until the write
	// is applied — this is what makes release safe for read-only packets.
	if out := f.Apply(r); out != Blocked {
		t.Fatalf("noop apply before dependency = %v", out)
	}
	if out := f.Apply(w); out != Applied {
		t.Fatalf("write apply = %v", out)
	}
	if out := f.Apply(r); out != Applied {
		t.Fatalf("noop apply after dependency = %v", out)
	}
	// Noop does not advance MAX.
	p := h.Store().PartitionOf("k")
	if f.Max()[p] != 1 {
		t.Fatalf("MAX = %d after noop, want 1", f.Max()[p])
	}
}

func TestFollowerEmptyVecApplies(t *testing.T) {
	_, f := headFollower(8)
	if out := f.Apply(Log{MB: 0, Flags: LogNoop}); out != Applied {
		t.Fatalf("empty-vec log = %v", out)
	}
}

func TestWaitApplyUnblocksOnDependency(t *testing.T) {
	h, f := headFollower(16)
	l1, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{1}) })
	l2, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{2}) })
	done := make(chan bool)
	go func() { done <- f.WaitApply(l2, 10*time.Millisecond, nil, 0) }()
	time.Sleep(5 * time.Millisecond)
	f.Apply(l1)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("WaitApply failed")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitApply did not unblock")
	}
}

func TestWaitApplyRepairCallback(t *testing.T) {
	h, f := headFollower(16)
	l1, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{1}) })
	l2, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{2}) })
	var calls int
	ok := f.WaitApply(l2, time.Millisecond, func() {
		calls++
		// Simulate repair: fetch missing logs from the head's buffer.
		for _, l := range h.Buffer().Missing(f.Max()) {
			f.Apply(l)
		}
	}, time.Second)
	if !ok {
		t.Fatal("WaitApply failed despite repair")
	}
	if calls == 0 {
		t.Fatal("repair callback never invoked")
	}
	_ = l1
}

func TestWaitApplyDeadline(t *testing.T) {
	h, f := headFollower(16)
	h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{1}) })
	l2, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{2}) })
	start := time.Now()
	if f.WaitApply(l2, time.Millisecond, nil, 20*time.Millisecond) {
		t.Fatal("WaitApply should time out")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("deadline far exceeded")
	}
}

// TestParkedApplyYieldsFetchGate parks a head worker mid-burst on a
// follower log whose predecessors died with their head. A recovery fetch
// of the worker's own head state must still get through and see the
// burst's earlier transaction whole (vector, buffered log and store), and
// once the recovery moves the chain generation on, the parked packet is
// dropped as stale instead of waiting out RepairDeadline.
func TestParkedApplyYieldsFetchGate(t *testing.T) {
	cfg := Config{NumMB: 2, F: 1, RepairEvery: time.Millisecond, RepairDeadline: 10 * time.Second}.WithDefaults()
	fab := netsim.New(netsim.Config{})
	t.Cleanup(fab.Stop)
	fab.AddNode("r0", netsim.NodeConfig{}).Crash() // mb 0's head, now dead
	r := NewReplica(cfg, ReplicaSpec{
		Index:   1,
		Sim:     fab.AddNode("r1", netsim.NodeConfig{}),
		Fabric:  fab,
		RingIDs: []netsim.NodeID{"r0", "r1"},
		MB:      TestMonitors(2)[1],
	})
	frame := func(logs []Log) []byte {
		pkt := mustCarrier()
		if err := pkt.InsertFTCOption(); err != nil {
			t.Fatal(err)
		}
		msg := &Message{Gen: cfg.Gen, Logs: logs}
		if err := pkt.SetTrailer(msg.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		return pkt.Buf
	}
	w := r.newWorker()
	// The first packet runs a head transaction; the second carries mb 0's
	// log for partition 3 at sequence 5, whose predecessors never came.
	w.in[0] = netsim.Inbound{From: "r0", Frame: frame(nil)}
	w.in[1] = netsim.Inbound{From: "r0", Frame: frame([]Log{{MB: 0, Vec: SparseVec{{Part: 3, Seq: 5}}}})}
	done := make(chan struct{})
	go func() {
		r.handleBurst(w, 2)
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for r.stats.Repairs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never parked")
		}
		time.Sleep(time.Millisecond)
	}
	fetched := make(chan error, 1)
	var fs *FetchState
	go func() {
		b, err := r.handleFetch("orch", encodeFetchReq(1))
		if err == nil {
			fs, err = decodeFetchState(b)
		}
		fetched <- err
	}()
	select {
	case err := <-fetched:
		if err != nil {
			t.Fatalf("fetching the parked replica's head state: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fetch of the parked replica's head state hung")
	}
	var seqs uint64
	for _, v := range fs.Vector {
		seqs += v
	}
	if seqs != 1 || len(fs.Logs) != 1 || len(fs.Snapshot) != 1 {
		t.Fatalf("torn cut: vector sums to %d, %d buffered logs, %d stored keys; want 1 of each",
			seqs, len(fs.Logs), len(fs.Snapshot))
	}
	r.SetGen(cfg.Gen + 1)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parked apply outlived the generation change")
	}
	if got := r.stats.StaleGen.Load(); got != 1 {
		t.Fatalf("StaleGen = %d, want the parked packet", got)
	}
	if m := r.followers[0].Max(); m[3] != 0 {
		t.Fatalf("stale log applied: MAX[3] = %d", m[3])
	}
}

func TestConcurrentDisjointApply(t *testing.T) {
	h, f := headFollower(64)
	// Generate logs across many keys, shuffle, and apply from 8 goroutines.
	var logs []Log
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("key-%d", i%32)
		log, err := h.Transaction(func(tx state.Txn) error { return tx.Put(k, []byte{byte(i)}) })
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, log)
	}
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(logs), func(i, j int) { logs[i], logs[j] = logs[j], logs[i] })
	var wg sync.WaitGroup
	ch := make(chan Log, len(logs))
	repair := func() {
		// As in the real system, a stalled follower repairs from its group
		// predecessor's retransmission buffer (here, the head's).
		for _, l := range h.Buffer().Missing(f.Max()) {
			f.Apply(l)
		}
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := range ch {
				if !f.WaitApply(l, time.Millisecond, repair, 10*time.Second) {
					t.Error("WaitApply timed out")
					return
				}
			}
		}()
	}
	for _, l := range logs {
		ch <- l
	}
	close(ch)
	wg.Wait()
	// Follower state must equal head state.
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("key-%d", i)
		hv, _ := h.Store().Get(k)
		fv, ok := f.Store().Get(k)
		if !ok || string(hv) != string(fv) {
			t.Fatalf("key %s: head=%v follower=%v", k, hv, fv)
		}
	}
	// MAX must equal head vector.
	hv, fm := h.Vector(), f.Max()
	for p := range hv {
		if hv[p] != fm[p] {
			t.Fatalf("partition %d: head=%d follower=%d", p, hv[p], fm[p])
		}
	}
}

func TestLogBufferPruneAndMissing(t *testing.T) {
	h, f := headFollower(16)
	for i := 0; i < 5; i++ {
		l, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{byte(i)}) })
		f.Apply(l)
	}
	if h.Buffer().Len() != 5 || f.Buffer().Len() != 5 {
		t.Fatalf("buffer lens = %d %d", h.Buffer().Len(), f.Buffer().Len())
	}
	// Prune with a commit covering the first 3 writes (seq 0,1,2 → commit 3).
	commit := make([]uint64, 16)
	commit[h.Store().PartitionOf("k")] = 3
	h.Buffer().Prune(commit)
	if h.Buffer().Len() != 2 {
		t.Fatalf("after prune len = %d, want 2", h.Buffer().Len())
	}
	// A stale follower (MAX=1) should get the 2 remaining logs.
	max := make([]uint64, 16)
	max[h.Store().PartitionOf("k")] = 1
	miss := h.Buffer().Missing(max)
	if len(miss) != 2 {
		t.Fatalf("missing = %d, want 2", len(miss))
	}
}

func TestFollowerRestoreMax(t *testing.T) {
	h, f := headFollower(8)
	l1, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{1}) })
	l2, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{2}) })
	// Restore MAX as if recovered from a peer that had applied l1.
	max := make([]uint64, 8)
	max[h.Store().PartitionOf("k")] = 1
	f.RestoreMax(max)
	if out := f.Apply(l1); out != Duplicate {
		t.Fatalf("recovered duplicate = %v", out)
	}
	if out := f.Apply(l2); out != Applied {
		t.Fatalf("next log = %v", out)
	}
}

func TestHeadRestoreVector(t *testing.T) {
	h, _ := headFollower(8)
	v := []uint64{3, 0, 7}
	h.RestoreVector(v)
	got := h.Vector()
	if got[0] != 3 || got[2] != 7 {
		t.Fatalf("vector = %v", got)
	}
	// Next transaction continues from the restored sequence.
	log, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{1}) })
	p := h.Store().PartitionOf("k")
	want := v[p]
	if int(p) >= len(v) {
		want = 0
	}
	if log.Vec.Get(p) != want {
		t.Fatalf("pre-seq = %d, want %d", log.Vec.Get(p), want)
	}
}

func TestBufferRestoreAll(t *testing.T) {
	h, _ := headFollower(8)
	l, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{1}) })
	snap := h.Buffer().all()
	if len(snap) != 1 {
		t.Fatal("snapshot empty")
	}
	b2 := newLogBuffer()
	b2.restore(snap)
	if b2.Len() != 1 {
		t.Fatal("restore failed")
	}
	_ = l
}

// Vertical scaling (§4.3): a head running T threads replicates correctly to
// a follower applying with a different number of threads.
func TestVerticalScalingDifferentThreadCounts(t *testing.T) {
	h := NewHead(0, state.New(64))
	f := NewFollower(0, state.New(64))
	const headThreads, txns = 8, 200
	logCh := make(chan Log, headThreads*txns)
	var hwg sync.WaitGroup
	for w := 0; w < headThreads; w++ {
		hwg.Add(1)
		go func(w int) {
			defer hwg.Done()
			for i := 0; i < txns; i++ {
				k := fmt.Sprintf("key-%d", (w*txns+i)%16)
				l, err := h.Transaction(func(tx state.Txn) error {
					v, _, err := tx.Get(k)
					if err != nil {
						return err
					}
					return tx.Put(k, append(v[:0:0], byte(i)))
				})
				if err != nil {
					t.Error(err)
					return
				}
				logCh <- l
			}
		}(w)
	}
	hwg.Wait()
	close(logCh)
	// Follower replays with 2 threads, repairing from the head's buffer
	// when channel ordering leaves a dependency stuck behind both workers.
	repair := func() {
		for _, l := range h.Buffer().Missing(f.Max()) {
			f.Apply(l)
		}
	}
	var fwg sync.WaitGroup
	for w := 0; w < 2; w++ {
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			for l := range logCh {
				if !f.WaitApply(l, time.Millisecond, repair, 10*time.Second) {
					t.Error("apply timed out")
					return
				}
			}
		}()
	}
	fwg.Wait()
	hv, fm := h.Vector(), f.Max()
	for p := range hv {
		if hv[p] != fm[p] {
			t.Fatalf("partition %d: head=%d follower=%d", p, hv[p], fm[p])
		}
	}
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("key-%d", i)
		hv, _ := h.Store().Get(k)
		fv, _ := f.Store().Get(k)
		if string(hv) != string(fv) {
			t.Fatalf("state divergence on %s", k)
		}
	}
}

func BenchmarkHeadTransaction(b *testing.B) {
	h := NewHead(0, state.New(64))
	val := make([]byte, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Transaction(func(tx state.Txn) error { return tx.Put("flow", val) }); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 0 {
			h.Buffer().Prune([]uint64{^uint64(0) / 2})
		}
	}
}

func BenchmarkFollowerApply(b *testing.B) {
	h := NewHead(0, state.New(64))
	f := NewFollower(0, state.New(64))
	logs := make([]Log, b.N)
	for i := range logs {
		logs[i], _ = h.Transaction(func(tx state.Txn) error { return tx.Put("flow", []byte{byte(i)}) })
		if i%1024 == 0 {
			h.Buffer().Prune([]uint64{^uint64(0) / 2})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := f.Apply(logs[i]); out != Applied {
			b.Fatalf("apply = %v", out)
		}
		if i%1024 == 0 {
			f.Buffer().Prune([]uint64{^uint64(0) / 2})
		}
	}
}

// TestFollowerBuffersOnlyAppliedPartitions: a coalesced run applies per
// partition, and a partition still missing earlier logs is skipped, so the
// run reports Blocked. The retransmission buffer must keep only what was
// installed — a recovery
// restores a new head from this store and buffer, and the new head resends
// its buffer, so a skipped partition's updates would reach other replicas
// without ever being in the head's state.
func TestFollowerBuffersOnlyAppliedPartitions(t *testing.T) {
	f := NewFollower(0, state.New(4))
	run := Log{
		MB:    0,
		Flags: LogCoalesced,
		Vec:   SparseVec{{Part: 1, Seq: 0}, {Part: 2, Seq: 5}},
		Base:  SparseVec{{Part: 1, Seq: 0}, {Part: 2, Seq: 5}},
		Updates: []state.Update{
			{Key: "a", Value: []byte{1}, Partition: 1},
			{Key: "b", Value: []byte{2}, Partition: 2},
		},
	}
	if out := f.Apply(run); out != Blocked {
		t.Fatalf("apply = %v, want Blocked (partition 2 is still missing logs)", out)
	}
	logs := f.Buffer().all()
	if len(logs) != 1 {
		t.Fatalf("buffer holds %d logs, want 1", len(logs))
	}
	got := logs[0]
	if len(got.Vec) != 1 || got.Vec[0].Part != 1 || len(got.Base) != 1 ||
		len(got.Updates) != 1 || got.Updates[0].Key != "a" {
		t.Fatalf("buffered %+v, want only partition 1 and its update", got)
	}
	if _, ok := f.Store().Get("b"); ok {
		t.Fatal("skipped partition's update was installed")
	}
}

// TestFollowerFetchFencesOldGeneration: once a follower serves a recovery
// fetch at generation g, logs arriving in g are refused (their packets are
// stale), while logs of the next generation still apply.
func TestFollowerFetchFencesOldGeneration(t *testing.T) {
	h, f := headFollower(16)
	var logs []Log
	for i := 0; i < 2; i++ {
		l, _ := h.Transaction(func(tx state.Txn) error { return tx.Put("k", []byte{byte(i)}) })
		logs = append(logs, l)
	}
	f.Fetch(3)
	if out := f.apply(logs[0], 3, nil); out != Fenced {
		t.Fatalf("generation-3 log after a generation-3 fetch: %v, want Fenced", out)
	}
	if out := f.apply(logs[0], 4, nil); out != Applied {
		t.Fatalf("generation-4 log: %v, want Applied", out)
	}
	if out := f.Apply(logs[1]); out != Applied {
		t.Fatalf("unfenced apply: %v, want Applied", out)
	}
}
