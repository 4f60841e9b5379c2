package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/trans"
)

// quantile returns the q-quantile of vals (linear interpolation between
// closest ranks), sorting vals in place. 0 for no values.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(vals)-1)
	return vals[lo] + (pos-float64(lo))*(vals[hi]-vals[lo])
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replicaCounters is the subset of core.Stats and SchedStats the benchmark
// reports, indexed by the c* constants.
type replicaCounters [nCounters]uint64

const (
	cPropagating = iota
	cRepairs
	cDuplicates
	cApplyTimeouts
	cSpilled
	cStaleGen
	cFencedHeld
	cMBErrors
	cSteals
	cAppBytes
	cPiggybackBytes
	cWireBytes
	nCounters
)

func readReplica(r *core.Replica) replicaCounters {
	s := r.Stats()
	return replicaCounters{
		cPropagating:    s.Propagating.Load(),
		cRepairs:        s.Repairs.Load(),
		cDuplicates:     s.Duplicates.Load(),
		cApplyTimeouts:  s.ApplyTimeouts.Load(),
		cSpilled:        s.SpilledLogs.Load(),
		cStaleGen:       s.StaleGen.Load(),
		cFencedHeld:     s.FencedHeld.Load(),
		cMBErrors:       s.MBErrors.Load(),
		cSteals:         r.Sched().Steals.Value(),
		cAppBytes:       s.AppBytesOut.Load(),
		cPiggybackBytes: s.PiggybackBytesOut.Load(),
		cWireBytes:      s.WireBytesOut.Load(),
	}
}

// ledger differences counters over the measurement window. Recovery
// replaces replicas and nodes mid-window, so it remembers every one it has
// seen: those present at the start are differenced against their start
// values, later ones count from zero.
type ledger struct {
	mu       sync.Mutex
	replicas map[*core.Replica]replicaCounters
	nodes    map[*netsim.Node]uint64 // clamps at first sight
	fabrics  []*netsim.Fabric
	drops0   uint64
	bridges  []*trans.Bridge
	bridge0  []trans.Stats
}

func newLedger(d *deployment) *ledger {
	l := &ledger{
		replicas: make(map[*core.Replica]replicaCounters),
		nodes:    make(map[*netsim.Node]uint64),
		fabrics:  d.fabrics,
		bridges:  d.bridges,
	}
	for i, r := range d.replicas() {
		l.replicas[r] = readReplica(r)
		if n := d.replicaNode(i, r); n != nil {
			l.nodes[n] = n.Clamps()
		}
	}
	l.drops0 = l.drops()
	for _, b := range d.bridges {
		l.bridge0 = append(l.bridge0, b.Stats())
	}
	return l
}

// see registers a replica (and its node) created after the window opened.
func (l *ledger) see(r *core.Replica, n *netsim.Node) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.replicas[r]; !ok {
		l.replicas[r] = replicaCounters{}
	}
	if n != nil {
		if _, ok := l.nodes[n]; !ok {
			l.nodes[n] = 0
		}
	}
}

func (l *ledger) drops() uint64 {
	var d uint64
	for _, f := range l.fabrics {
		_, _, dropped, _ := f.Stats()
		d += dropped
	}
	return d
}

// windowTotals is every counter differenced over the window.
type windowTotals struct {
	replica   replicaCounters
	clamps    uint64
	tailDrops uint64
	bridge    trans.Stats
}

func (l *ledger) totals() windowTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t windowTotals
	for r, base := range l.replicas {
		now := readReplica(r)
		for i := range now {
			t.replica[i] += now[i] - base[i]
		}
	}
	for n, base := range l.nodes {
		t.clamps += n.Clamps() - base
	}
	t.tailDrops = l.drops() - l.drops0
	for i, b := range l.bridges {
		s, s0 := b.Stats(), l.bridge0[i]
		t.bridge.FramesOut += s.FramesOut - s0.FramesOut
		t.bridge.DatagramsOut += s.DatagramsOut - s0.DatagramsOut
		t.bridge.FrameBytesOut += s.FrameBytesOut - s0.FrameBytesOut
		t.bridge.WireBytesOut += s.WireBytesOut - s0.WireBytesOut
		t.bridge.SendSyscalls += s.SendSyscalls - s0.SendSyscalls
		t.bridge.RecvSyscalls += s.RecvSyscalls - s0.RecvSyscalls
		t.bridge.OversizeDrops += s.OversizeDrops - s0.OversizeDrops
		t.bridge.TruncatedDatagrams += s.TruncatedDatagrams - s0.TruncatedDatagrams
	}
	return t
}

// sampler reads gauges off the data path at a fixed cadence: ingress queue
// depth per replica node, packets held at the egress buffer, forwarder logs
// pending, the adaptive burst budget, live state keys and heap in use.
type sampler struct {
	d      *deployment
	led    *ledger
	every  time.Duration
	stopCh chan struct{}
	wg     sync.WaitGroup

	depth    []float64
	held     []float64
	fwd      []float64
	burst    []float64
	liveKeys []float64
	heapPeak uint64
}

const sampleEvery = 5 * time.Millisecond

func startSampler(d *deployment, led *ledger) *sampler {
	s := &sampler{d: d, led: led, every: sampleEvery, stopCh: make(chan struct{})}
	s.wg.Add(1)
	go s.loop()
	return s
}

// stop ends sampling. The heap peak also takes the live heap after a
// collection at the end of the window, where a heap that grew through the
// window peaks.
func (s *sampler) stop() {
	close(s.stopCh)
	s.wg.Wait()
	runtime.GC()
	s.heapPeak = max(s.heapPeak, heapInUse())
}

// heapSample reads the heap the last garbage collection found live; its
// peak over the window does not depend on where in a GC cycle a sample
// falls, as the bytes allocated so far would.
var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

func heapInUse() uint64 {
	metrics.Read(heapSample)
	if heapSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return heapSample[0].Value.Uint64()
}

func (s *sampler) loop() {
	defer s.wg.Done()
	t := time.NewTicker(s.every)
	defer t.Stop()
	var buf []int
	for tick := 0; ; tick++ {
		reps := s.d.replicas()
		held, fwd := 0, 0
		for i, r := range reps {
			n := s.d.replicaNode(i, r)
			s.led.see(r, n)
			if n != nil {
				buf = n.QueueDepths(buf)
				sum := 0
				for _, q := range buf {
					sum += q
				}
				s.depth = append(s.depth, float64(sum))
			}
			held += r.HeldPackets()
			fwd += r.ForwarderPending()
			s.burst = append(s.burst, float64(r.Sched().Burst.Value()))
		}
		s.held = append(s.held, float64(held))
		s.fwd = append(s.fwd, float64(fwd))
		if tick%10 == 0 {
			keys := 0
			for _, r := range reps {
				if h := r.Head(); h != nil {
					keys += h.Store().Len()
				}
			}
			s.liveKeys = append(s.liveKeys, float64(keys))
		}
		s.heapPeak = max(s.heapPeak, heapInUse())
		select {
		case <-s.stopCh:
			return
		case <-t.C:
		}
	}
}

// cpuStat reads the host CPU counters from /proc/stat: all CPU time and the
// part the hypervisor stole from this VM, in clock ticks. ok is false where
// the counters are unavailable.
func cpuStat() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, true
}

// stealMeter records, for each slice of the window, the share of CPU time
// the hypervisor stole from this VM: time the chain wanted to run and could
// not, which no change to the program causes.
type stealMeter struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	fracs  []float64
}

func startStealMeter(slices int, every time.Duration) *stealMeter {
	m := &stealMeter{stopCh: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		total0, steal0, _ := cpuStat()
		mark := func() {
			total, steal, ok := cpuStat()
			frac := 0.0
			if ok && total > total0 {
				frac = float64(steal-steal0) / float64(total-total0)
			}
			m.fracs = append(m.fracs, frac)
			total0, steal0 = total, steal
		}
		for len(m.fracs) < slices {
			select {
			case <-t.C:
				mark()
			case <-m.stopCh:
				mark() // the last, possibly shorter, slice
				return
			}
		}
	}()
	return m
}

// stop ends metering and returns the per-slice steal shares.
func (m *stealMeter) stop() []float64 {
	close(m.stopCh)
	m.wg.Wait()
	return m.fracs
}
