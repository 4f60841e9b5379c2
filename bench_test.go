// Benchmarks regenerating the paper's evaluation (§7) under `go test
// -bench`: one benchmark per table/figure, plus ablations. Each benchmark
// pumps b.N packets through a freshly deployed system under test with a
// bounded in-flight window (sustainable-rate methodology), so ns/op is the
// per-packet cost and the reported pps metric is the throughput; figures
// appear as sub-benchmarks over their sweep parameters.
//
// Absolute numbers come from an in-process fabric, not the paper's 40 GbE
// testbed — compare shapes (who wins, how things scale), not magnitudes.
package ftc

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/exp"
	"github.com/ftsfc/ftc/internal/hashx"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// envBurst reads the FTC_BURST override so `make bench-json BURST=1` can
// measure the degenerate per-packet pipeline against the default burst
// without a code change. 0 (unset) keeps each layer's default.
func envBurst() int {
	if v := os.Getenv("FTC_BURST"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return 0
}

// pump drives exactly b.N packets through the SUT with a bounded in-flight
// window and waits for them all to exit.
func pump(b *testing.B, kind exp.Kind, factory exp.MBFactory, workers int, packetSize int) {
	b.Helper()
	p := exp.Params{Flows: 64, PacketSize: packetSize, Burst: envBurst()}
	s, err := exp.BuildSUT(kind, factory, p, workers)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	const window = 512
	start := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	sent := uint64(0)
	for sent < uint64(b.N) {
		for sent < uint64(b.N) && sent-s.Sink.Received() < window {
			s.Gen.SendOne(int(sent))
			sent++
		}
		if sent-s.Sink.Received() >= window {
			runtime.Gosched()
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Sink.Received() < uint64(b.N) {
		if time.Now().After(deadline) {
			b.Fatalf("egress %d of %d", s.Sink.Received(), b.N)
		}
		runtime.Gosched()
	}
	b.StopTimer()
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "pps")
	}
	if g := s.Goodput(); g > 0 {
		b.ReportMetric(g, "goodput")
	}
}

// BenchmarkTable2 measures the per-packet cost of each FTC element
// (Table 2: performance breakdown for MazuNAT in a chain of two).
func BenchmarkTable2(b *testing.B) {
	nat := exp.MazuNATPair()(8)[0]
	pkt, err := wire.BuildUDP(wire.UDPSpec{
		SrcMAC: wire.MAC{2, 0, 0, 0, 0, 1}, DstMAC: wire.MAC{2, 0, 0, 0, 0, 2},
		Src: wire.Addr4(10, 0, 0, 1), Dst: wire.Addr4(1, 2, 3, 4),
		SrcPort: 5555, DstPort: 80, Payload: make([]byte, 214), Headroom: 512,
	})
	if err != nil {
		b.Fatal(err)
	}
	components := []struct {
		name string
		get  func(core.Breakdown) time.Duration
	}{
		{"PacketProcessing", func(d core.Breakdown) time.Duration { return d.PacketProcessing }},
		{"Locking", func(d core.Breakdown) time.Duration { return d.Locking }},
		{"CopyPiggybackedState", func(d core.Breakdown) time.Duration { return d.CopyPiggyback }},
		{"Forwarder", func(d core.Breakdown) time.Duration { return d.Forwarder }},
		{"Buffer", func(d core.Breakdown) time.Duration { return d.Buffer }},
	}
	for _, c := range components {
		b.Run(c.name, func(b *testing.B) {
			bd, err := core.MeasureBreakdown(nat, pkt.Buf, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(c.get(bd).Nanoseconds()), "ns/pkt")
			b.ReportMetric(float64(c.get(bd).Nanoseconds())*2.0, "cycles@2GHz")
		})
	}
}

// BenchmarkFig5 sweeps Gen's state size across packet sizes under FTC
// (Figure 5: throughput vs state size).
func BenchmarkFig5(b *testing.B) {
	// Endpoint sweep; `ftclab fig5` runs the paper's full grid.
	for _, ps := range []int{128, 512} {
		for _, ss := range []int{16, 256} {
			b.Run(fmt.Sprintf("pkt%d/state%d", ps, ss), func(b *testing.B) {
				pump(b, exp.FTC, exp.SingleGen(ss), 1, ps)
			})
		}
	}
}

// BenchmarkFig5Skewed measures the elephant-queue worst case: a
// Zipf-skewed workload (one elephant flow plus background flows, all
// RSS-colliding onto one ingress queue of the 4-queue layout) through FTC
// at workers=4. One worker carries every flow while three idle, so pps
// sits near one worker's worth; EXPERIMENTS.md compares it with the work
// stealing this repository used to run.
func BenchmarkFig5Skewed(b *testing.B) {
	p := exp.Params{Flows: 64, PacketSize: 128, Burst: envBurst(), Skew: 1.2}
	// Per-flow state, so workers never serialize on shared partition locks.
	s, err := exp.BuildSUT(exp.FTC, exp.SingleGenPerFlow(16), p, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	pumpSUTChunked(b, s)
}

// pumpSUTChunked is pumpSUT with chunked generator sends: one route
// resolution per chunk lets a single generator goroutine oversubscribe a
// multi-worker SUT, which the skewed-workload benchmark needs — per-packet
// SendOne saturates near one worker's throughput, hiding any scheduling
// difference.
func pumpSUTChunked(b *testing.B, s *exp.SUT) {
	b.Helper()
	const window = 1024
	const chunk = 64
	b.ReportAllocs()
	start := time.Now()
	sent := uint64(0)
	for sent < uint64(b.N) {
		for sent < uint64(b.N) && sent-s.Sink.Received() < window {
			n := chunk
			if rem := uint64(b.N) - sent; rem < chunk {
				n = int(rem)
			}
			m, err := s.Gen.SendChunk(int(sent), n)
			if err != nil {
				b.Fatal(err)
			}
			sent += uint64(m)
		}
		if sent-s.Sink.Received() >= window {
			runtime.Gosched()
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Sink.Received() < uint64(b.N) {
		if time.Now().After(deadline) {
			b.Fatalf("egress %d of %d", s.Sink.Received(), b.N)
		}
		runtime.Gosched()
	}
	b.StopTimer()
	if elapsed := time.Since(start).Seconds(); elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "pps")
	}
	if g := s.Goodput(); g > 0 {
		b.ReportMetric(g, "goodput")
	}
}

// BenchmarkFig6 sweeps Monitor's sharing level for NF/FTC/FTMB (Figure 6).
func BenchmarkFig6(b *testing.B) {
	// Endpoint sharing levels; `ftclab fig6` runs the full sweep.
	for _, kind := range []exp.Kind{exp.NF, exp.FTC, exp.FTMB} {
		for _, sharing := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/share%d", kind, sharing), func(b *testing.B) {
				pump(b, kind, exp.SingleMonitor(sharing), 8, 256)
			})
		}
	}
}

// BenchmarkFig7 sweeps MazuNAT's thread count for NF/FTC/FTMB (Figure 7).
func BenchmarkFig7(b *testing.B) {
	// Endpoint thread counts; `ftclab fig7` runs the full sweep.
	for _, kind := range []exp.Kind{exp.NF, exp.FTC, exp.FTMB} {
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/threads%d", kind, workers), func(b *testing.B) {
				pump(b, kind, exp.SingleMazuNAT(), workers, 256)
			})
		}
	}
}

// BenchmarkFig8 measures per-packet latency through each system at a
// sustainable load (Figure 8's flat region); ns/op here is the full chain
// traversal latency because the window is 1 (closed loop).
func BenchmarkFig8(b *testing.B) {
	cases := []struct {
		name    string
		factory exp.MBFactory
		workers int
	}{
		{"MonitorShare8", exp.SingleMonitor(8), 8},
		{"MazuNAT1Thread", exp.SingleMazuNAT(), 1},
		{"MazuNAT8Threads", exp.SingleMazuNAT(), 8},
	}
	for _, c := range cases {
		for _, kind := range []exp.Kind{exp.NF, exp.FTC, exp.FTMB} {
			b.Run(fmt.Sprintf("%s/%s", c.name, kind), func(b *testing.B) {
				closedLoop(b, kind, c.factory, c.workers)
			})
		}
	}
}

// closedLoop sends one packet at a time, so ns/op ≈ per-packet chain latency.
func closedLoop(b *testing.B, kind exp.Kind, factory exp.MBFactory, workers int) {
	b.Helper()
	s, err := exp.BuildSUT(kind, factory, exp.Params{Flows: 64, PacketSize: 256, Burst: envBurst()}, workers)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Gen.SendOne(i)
		target := uint64(i + 1)
		deadline := time.Now().Add(10 * time.Second)
		for s.Sink.Received() < target {
			if time.Now().After(deadline) {
				b.Fatalf("packet %d never exited", i)
			}
			runtime.Gosched()
		}
	}
}

// BenchmarkFig9 sweeps chain length for all four systems (Figure 9).
func BenchmarkFig9(b *testing.B) {
	for _, kind := range []exp.Kind{exp.NF, exp.FTC, exp.FTMB, exp.FTMBSnap} {
		for _, n := range []int{2, 3, 4, 5} {
			b.Run(fmt.Sprintf("%s/chain%d", kind, n), func(b *testing.B) {
				pump(b, kind, exp.MonitorChain(n, 1), 8, 256)
			})
		}
	}
}

// BenchmarkFig10 measures closed-loop latency vs chain length (Figure 10);
// endpoint lengths only — `ftclab fig10` runs the full sweep.
func BenchmarkFig10(b *testing.B) {
	for _, kind := range []exp.Kind{exp.NF, exp.FTC, exp.FTMB} {
		for _, n := range []int{2, 5} {
			b.Run(fmt.Sprintf("%s/chain%d", kind, n), func(b *testing.B) {
				closedLoop(b, kind, exp.MonitorChain(n, 1), 1)
			})
		}
	}
}

// BenchmarkFig11 exercises the Ch-3 path used for the latency CDF
// (Figure 11); percentile detail comes from `ftclab fig11`.
func BenchmarkFig11(b *testing.B) {
	for _, kind := range []exp.Kind{exp.NF, exp.FTC, exp.FTMB} {
		b.Run(kind.String(), func(b *testing.B) {
			closedLoop(b, kind, exp.MonitorChain(3, 1), 1)
		})
	}
}

// BenchmarkFig12 sweeps the replication factor on Ch-5 (Figure 12).
func BenchmarkFig12(b *testing.B) {
	for _, f := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("replication%d", f+1), func(b *testing.B) {
			p := exp.Params{Flows: 64, PacketSize: 256, F: f, Burst: envBurst()}
			s, err := exp.BuildSUT(exp.FTC, exp.MonitorChain(5, 1), p, 8)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			pumpSUT(b, s)
		})
	}
}

// pumpSUT is pump for an already-built SUT.
func pumpSUT(b *testing.B, s *exp.SUT) {
	b.Helper()
	const window = 512
	b.ReportAllocs()
	start := time.Now()
	sent := uint64(0)
	for sent < uint64(b.N) {
		for sent < uint64(b.N) && sent-s.Sink.Received() < window {
			s.Gen.SendOne(int(sent))
			sent++
		}
		if sent-s.Sink.Received() >= window {
			runtime.Gosched()
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Sink.Received() < uint64(b.N) {
		if time.Now().After(deadline) {
			b.Fatalf("egress %d of %d", s.Sink.Received(), b.N)
		}
		runtime.Gosched()
	}
	b.StopTimer()
	if elapsed := time.Since(start).Seconds(); elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "pps")
	}
	if g := s.Goodput(); g > 0 {
		b.ReportMetric(g, "goodput")
	}
}

// BenchmarkFig13 measures one full recovery (spawn + state fetch + reroute)
// of the middle middlebox of Ch-Rec per iteration (Figure 13's local-area
// shape; `ftclab fig13` adds the WAN regions).
func BenchmarkFig13(b *testing.B) {
	p := exp.Params{RunTime: 50 * time.Millisecond}
	for i := 0; i < b.N; i++ {
		tb, err := exp.Fig13(p)
		if err != nil {
			b.Fatal(err)
		}
		_ = tb
	}
}

// BenchmarkAblationPiggyback compares piggybacking against separate
// replication messages (design choice §3.2).
func BenchmarkAblationPiggyback(b *testing.B) {
	tb := exp.AblationPiggyback(b.N)
	_ = tb
}

// BenchmarkAblationDepVectors compares dependency-vector replication
// against total-order replication (design choice §4.3).
func BenchmarkAblationDepVectors(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("appliers%d", workers), func(b *testing.B) {
			tb := exp.AblationDependencyVectors(b.N, workers)
			_ = tb
		})
	}
}

// BenchmarkAblationTransactions compares partitioned 2PL against a global
// lock (design choice §4.2).
func BenchmarkAblationTransactions(b *testing.B) {
	tb := exp.AblationTransactions(b.N/8+1, 8)
	_ = tb
}

// Million-flow state-engine benchmark. Holds ~1M live flow entries and
// measures the swiss-table store (internal/state) against seedStore, a
// faithful reproduction of the pre-rebuild layout (per-partition mutex +
// map[string][]byte with a copy per read and an allocation per write).
// Two access patterns per engine:
//
//   - get:   Zipf-skewed lookups (s=1.2) over the live set — the NAT/counter
//     read path in isolation. The table side must run at 0 allocs/op.
//   - sweep: the headline churning key-space sweep — every op reads one
//     Zipf-ranked recent flow, every mfCreateEvery-th op creates a flow, and
//     at burst-boundary cadence (one clock tick per mfCreatesPerTick
//     creates) due flows age out, keeping the live population pinned near
//     mfLive. The table expires off the TTL wheel (0 allocs/op); the seed
//     map has no aging, so its baseline carries the classic flat-map scheme
//     — a deadline sidecar swept by periodic partition scans (seedAger).
const (
	mfLive           = 1 << 20            // live flow population
	mfRing           = mfLive + mfLive/4  // key ring; the margin keeps creates from reviving live keys
	mfCreateEvery    = 8                  // sweep ops per flow creation (new-flow packet ratio)
	mfCreatesPerTick = 64                 // creates per clock tick; TTL = mfLive/mfCreatesPerTick ticks
	mfParts          = 64                 // store partitions
	mfValSize        = 32                 // flow-entry value size (NAT mapping scale)
	mfTTLTicks       = mfLive / mfCreatesPerTick
)

// mfKeys precomputes the key ring and each key's partition so neither hash
// nor formatting shows up inside the measured loops.
func mfKeys() ([]string, []uint16) {
	keys := make([]string, mfRing)
	parts := make([]uint16, mfRing)
	probe := state.New(mfParts)
	for i := range keys {
		keys[i] = fmt.Sprintf("flow:%07d", i)
		parts[i] = probe.PartitionOf(keys[i])
	}
	return keys, parts
}

// mfZipf precomputes a table of Zipf-distributed recency ranks (0 = most
// recently created flow) so the generator itself stays out of the measured
// loops. Ranks stop a few collection rounds short of mfLive so a ranked
// flow is always still live in either engine.
func mfZipf() []int {
	idx := make([]int, 1<<16)
	z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, mfLive-4*mfCreatesPerTick)
	for i := range idx {
		idx[i] = int(z.Uint64())
	}
	return idx
}

// seedPart is one seedStore partition: the seed's mutex + Go map layout.
type seedPart struct {
	mu sync.Mutex
	m  map[string][]byte
}

// seedStore reproduces the pre-rebuild store: partitioned map[string][]byte
// where every read copies the value out and every write allocates a fresh
// buffer. It exists only as the benchmark baseline.
type seedStore struct {
	parts []seedPart
}

func newSeedStore(n int) *seedStore {
	s := &seedStore{parts: make([]seedPart, n)}
	for i := range s.parts {
		s.parts[i].m = make(map[string][]byte)
	}
	return s
}

func (s *seedStore) part(key string) *seedPart {
	return &s.parts[hashx.Sum32String(key)%uint32(len(s.parts))]
}

func (s *seedStore) get(key string) ([]byte, bool) {
	p := s.part(key)
	p.mu.Lock()
	v, ok := p.m[key]
	if !ok {
		p.mu.Unlock()
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	p.mu.Unlock()
	return out, true
}

func (s *seedStore) put(key string, val []byte) {
	p := s.part(key)
	p.mu.Lock()
	p.m[key] = append([]byte(nil), val...)
	p.mu.Unlock()
}

// seedAger bolts flow aging onto seedStore the way a flat map has to: a
// per-partition deadline sidecar swept by periodic scans. The sweep visits
// one partition per clock tick — full coverage every mfParts ticks — so its
// expiry-latency bound is mfParts× looser than the wheel's one-tick bound;
// the comparison is deliberately generous to the baseline (scanning every
// partition per tick, the wheel's actual contract, would be mfParts× worse
// again).
type seedAger struct {
	st   *seedStore
	exp  []map[string]int64 // deadline tick per live key, same partitioning as st
	next int                // next partition to sweep
}

func newSeedAger(st *seedStore) *seedAger {
	a := &seedAger{st: st, exp: make([]map[string]int64, len(st.parts))}
	for i := range a.exp {
		a.exp[i] = make(map[string]int64)
	}
	return a
}

// put installs a flow with a deadline, partition precomputed by the caller
// (mirroring how Update carries Partition on the table side).
func (a *seedAger) put(key string, part uint16, val []byte, deadline int64) {
	p := &a.st.parts[part]
	p.mu.Lock()
	p.m[key] = append([]byte(nil), val...)
	p.mu.Unlock()
	a.exp[part][key] = deadline
}

// tick sweeps the next partition, deleting every flow past its deadline.
func (a *seedAger) tick(now int64) {
	part := a.next
	a.next = (a.next + 1) % len(a.exp)
	m := a.exp[part]
	p := &a.st.parts[part]
	p.mu.Lock()
	for k, d := range m {
		if d <= now {
			delete(m, k)
			delete(p.m, k)
		}
	}
	p.mu.Unlock()
}

// mfReport emits throughput under the same metric name the chain benchmarks
// use so scripts/bench_json.awk and bench_compare pick the lines up.
func mfReport(b *testing.B, start time.Time) {
	b.StopTimer()
	if elapsed := time.Since(start).Seconds(); elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "pps")
	}
}

// BenchmarkMillionFlows is the store-level scale benchmark backing the
// million-flow claim: see the const block above for the workload shape.
func BenchmarkMillionFlows(b *testing.B) {
	keys, parts := mfKeys()
	zipf := mfZipf()
	val := bytes.Repeat([]byte{0xab}, mfValSize)

	b.Run("table/get", func(b *testing.B) {
		st := state.New(mfParts)
		ups := make([]state.Update, 0, 1024)
		for i := 0; i < mfLive; i++ {
			ups = append(ups, state.Update{Key: keys[i], Value: val, Partition: parts[i]})
			if len(ups) == cap(ups) {
				st.Apply(ups)
				ups = ups[:0]
			}
		}
		st.Apply(ups)
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			v, ok := st.GetAppend(keys[zipf[i&(len(zipf)-1)]], buf[:0])
			if !ok {
				b.Fatal("live key missing")
			}
			buf = v
		}
		mfReport(b, start)
	})

	b.Run("table/sweep", func(b *testing.B) {
		var now int64 = 1
		st := state.New(mfParts)
		st.ConfigureExpiry(state.Expiry{
			// Tick 1ns makes ticks integral: TTL is mfTTLTicks ticks, so at
			// one create per tick-slot the live set stays at ~mfLive.
			TTL:      time.Duration(mfTTLTicks),
			Tick:     1,
			Prefixes: []string{"flow:"},
			Clock:    func() int64 { return now },
		})
		one := make([]state.Update, 1)
		expired := make([]string, 0, 4*mfCreatesPerTick)
		dels := make([]state.Update, 0, 4*mfCreatesPerTick)
		creates := 0
		create := func() {
			if creates%mfCreatesPerTick == 0 {
				now++
				expired = st.CollectExpired(now, -1, expired[:0])
				dels = dels[:0]
				for _, k := range expired {
					dels = append(dels, state.Update{Key: k, Partition: st.PartitionOf(k)})
				}
				st.Apply(dels)
			}
			j := creates % mfRing
			one[0] = state.Update{Key: keys[j], Value: val, Partition: parts[j]}
			st.Apply(one)
			creates++
		}
		// Fill, then warm one full TTL window before the timer: the second
		// window cycles every wheel bucket through arm → cascade → collect,
		// so slice capacities reach steady state — a one-time cost that
		// would otherwise pollute short (-benchtime=100x) guard runs.
		for creates < 2*mfLive {
			create()
		}
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if i%mfCreateEvery == 0 {
				create()
			}
			idx := (creates - 1 - zipf[i&(len(zipf)-1)]) % mfRing
			v, ok := st.GetAppend(keys[idx], buf[:0])
			if !ok {
				b.Fatalf("recent flow %q missing", keys[idx])
			}
			buf = v
		}
		mfReport(b, start)
	})

	b.Run("seedmap/get", func(b *testing.B) {
		s := newSeedStore(mfParts)
		for i := 0; i < mfLive; i++ {
			s.put(keys[i], val)
		}
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			v, ok := s.get(keys[zipf[i&(len(zipf)-1)]])
			if !ok {
				b.Fatal("live key missing")
			}
			_ = v
		}
		mfReport(b, start)
	})

	b.Run("seedmap/sweep", func(b *testing.B) {
		var now int64 = 1
		s := newSeedStore(mfParts)
		a := newSeedAger(s)
		creates := 0
		create := func() {
			if creates%mfCreatesPerTick == 0 {
				now++
				a.tick(now)
			}
			j := creates % mfRing
			a.put(keys[j], parts[j], val, now+mfTTLTicks)
			creates++
		}
		// Same fill + one-TTL-window warmup as table/sweep so both engines
		// enter the timer at the same point in the expiry cycle.
		for creates < 2*mfLive {
			create()
		}
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if i%mfCreateEvery == 0 {
				create()
			}
			idx := (creates - 1 - zipf[i&(len(zipf)-1)]) % mfRing
			v, ok := s.get(keys[idx])
			if !ok {
				b.Fatalf("recent flow %q missing", keys[idx])
			}
			_ = v
		}
		mfReport(b, start)
	})
}
