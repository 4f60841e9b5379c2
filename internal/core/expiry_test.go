package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/state"
)

// ttlFlowMB is flowMB with its per-flow counters opted into TTL aging.
type ttlFlowMB struct{ flowMB }

func (m *ttlFlowMB) FlowTTLPrefixes() []string { return []string{m.prefix + "-"} }

// expiryClockBase keeps the manual expiry clock positive and far from zero,
// so tick arithmetic never degenerates (nowTick 0 means "expiry off").
const expiryClockBase = int64(1e15)

// runExpiryWorkload runs the lossy burst workload with FlowTTL armed on the
// flow middleboxes and a manual expiry clock, then jumps the clock past the
// TTL and forces expiry. It returns the delivered count, the digest after
// normal traffic, and the digest after every flow entry aged out.
func runExpiryWorkload(t *testing.T, burst, n int, newStore func(int) state.Backend) (int, string, string) {
	t.Helper()
	var offset atomic.Int64
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Burst = burst
	cfg.NewStore = newStore
	cfg.FlowTTL = time.Hour
	cfg.ExpiryClock = func() int64 { return expiryClockBase + offset.Load() }
	mbs := []Middlebox{
		&ttlFlowMB{flowMB{"a"}},
		&countMB{"c1"},
		&ttlFlowMB{flowMB{"b"}},
	}
	h := newHarness(t, cfg, mbs, netsim.Config{Seed: 42})
	h.fabric.SetLink("gen", h.chain.IngressID(), netsim.LinkProfile{LossRate: 0.15})

	h.sendPackets(t, n)
	ids := drainSink(t, h, 30*time.Second)
	waitForQuiescence(t, h, 0)
	pre := storeDigest(h)
	if !strings.Contains(pre, "a-") || !strings.Contains(pre, "b-") {
		t.Fatalf("workload left no flow keys to expire:\n%s", pre)
	}

	// Two hours pass: every flow entry is due. The deletions must replicate
	// through the normal log machinery before the chain re-quiesces.
	offset.Add(int64(2 * time.Hour))
	if deleted := h.chain.TriggerExpiry(); deleted == 0 {
		t.Fatal("TriggerExpiry deleted nothing")
	}
	waitForQuiescence(t, h, 0)
	if err := h.chain.CheckConvergence(); err != nil {
		t.Fatalf("after expiry: %v", err)
	}
	post := storeDigest(h)
	for _, line := range strings.Split(post, "\n") {
		if strings.HasPrefix(line, "a-") || strings.HasPrefix(line, "b-") {
			t.Fatalf("flow key survived forced expiry: %q", line)
		}
	}
	if !strings.Contains(post, "c1=") {
		t.Fatalf("shared counter c1 expired:\n%s", post)
	}
	return len(ids), pre, post
}

// TestExpiryBurstEquivalence extends the burst=1 vs burst=32 equivalence
// proof across flow aging: with FlowTTL armed, both burst sizes must produce
// identical chain-wide digests before and after forced expiry, on both
// engines, and expiry must remove exactly the flow-prefixed keys from every
// head and follower store.
func TestExpiryBurstEquivalence(t *testing.T) {
	engines := []struct {
		name     string
		newStore func(int) state.Backend
	}{
		{"2pl", nil},
		{"occ", func(p int) state.Backend { return state.NewOCC(p) }},
	}
	const n = 400
	for _, e := range engines {
		e := e
		t.Run(e.name, func(t *testing.T) {
			n1, pre1, post1 := runExpiryWorkload(t, 1, n, e.newStore)
			n32, pre32, post32 := runExpiryWorkload(t, 32, n, e.newStore)
			if n1 == 0 || n1 == n {
				t.Fatalf("loss link ineffective: %d of %d delivered", n1, n)
			}
			if n1 != n32 {
				t.Fatalf("delivered %d packets at burst=1, %d at burst=32", n1, n32)
			}
			if pre1 != pre32 {
				t.Fatalf("pre-expiry digests diverge:\nburst=1:\n%s\nburst=32:\n%s", pre1, pre32)
			}
			if post1 != post32 {
				t.Fatalf("post-expiry digests diverge:\nburst=1:\n%s\nburst=32:\n%s", post1, post32)
			}
		})
	}
}

// TestExpiryRefreshKeepsActiveFlows checks the other half of the TTL
// contract at chain level: traffic arriving within the TTL refreshes a
// flow, so repeated sends plus a sub-TTL clock advance expire nothing.
func TestExpiryRefreshKeepsActiveFlows(t *testing.T) {
	var offset atomic.Int64
	cfg := testConfig()
	cfg.FlowTTL = time.Hour
	cfg.ExpiryClock = func() int64 { return expiryClockBase + offset.Load() }
	mbs := []Middlebox{&ttlFlowMB{flowMB{"a"}}, &countMB{"c1"}}
	h := newHarness(t, cfg, mbs, netsim.Config{Seed: 7})

	h.sendPackets(t, 50)
	drainSink(t, h, 30*time.Second)
	waitForQuiescence(t, h, 0)

	// Half a TTL passes, then the same flows send again (refresh)...
	offset.Add(int64(30 * time.Minute))
	h.sendPackets(t, 50)
	drainSink(t, h, 30*time.Second)
	waitForQuiescence(t, h, 0)

	// ...so another half-TTL later nothing is due.
	offset.Add(int64(45 * time.Minute))
	if deleted := h.chain.TriggerExpiry(); deleted != 0 {
		t.Fatalf("refreshed flows expired: %d deletions", deleted)
	}
	pre := storeDigest(h)
	if !strings.Contains(pre, "a-") {
		t.Fatalf("flow keys missing before their TTL:\n%s", pre)
	}

	// A full idle TTL finally ages them out.
	offset.Add(int64(2 * time.Hour))
	if deleted := h.chain.TriggerExpiry(); deleted == 0 {
		t.Fatal("idle flows never expired")
	}
	waitForQuiescence(t, h, 0)
	if err := h.chain.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerChurnHoldsNoTTLState is the follower TTL-wheel regression: a
// follower store applies a replicated write and deletion for each of 100k
// flows of a TTL-aged middlebox, ending with no live keys. Followers never
// collect expired keys, so TTL bookkeeping armed there is never reclaimed
// (it grew ~1.6 MB per 100k flows); the store's heap must stay flat.
func TestFollowerChurnHoldsNoTTLState(t *testing.T) {
	cfg := testConfig()
	cfg.NumMB = 2
	cfg.FlowTTL = time.Second
	mbs := []Middlebox{&ttlFlowMB{flowMB{"a"}}, &countMB{"c1"}}
	ttl, _ := ChainPrefixes(mbs)
	r := NewReplica(cfg, ReplicaSpec{Index: 1, MB: mbs[1], TTLPrefixes: ttl})
	st := r.Follower(0).Store()

	var ms runtime.MemStats
	heap := func() uint64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	keys := make([]string, 100_000)
	for i := range keys {
		keys[i] = fmt.Sprintf("a-%d", i)
	}
	before := heap()
	for _, k := range keys {
		p := st.PartitionOf(k)
		st.Apply([]state.Update{{Key: k, Value: []byte{1}, Partition: p}})
		st.Apply([]state.Update{{Key: k, Partition: p}})
	}
	after := heap()
	if st.Len() != 0 {
		t.Fatalf("follower holds %d keys after churn, want 0", st.Len())
	}
	if grew := int64(after) - int64(before); grew > 256<<10 {
		t.Fatalf("follower store grew %d KB over 100k churned flows", grew>>10)
	}
	runtime.KeepAlive(keys)
}
