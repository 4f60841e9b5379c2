package main

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	setupRounds = 9                      // deployments per pass; setup_s is their median
	slice       = time.Second            // the window is measured in slices this long
	stealCap    = 0.05                   // slices where the hypervisor stole more CPU than this are left out
	warmTimeout = 30 * time.Second       // warm-up must deliver every packet within this
	drainFor    = 2 * time.Second        // delivery deadline after the window closes
	lossAfter   = 200 * time.Millisecond // closed loop: reuse the window slot of a packet this late
	quiesceFor  = 20 * time.Second       // bound on the post-run quiescence wait
	expiryGrace = 200 * time.Millisecond // expiry period added to FlowTTL before checking convergence
)

// run executes one invocation: an untraced pass, and with tracing a traced
// pass after it.
func run(w *workload, o options) (*result, error) {
	res := &result{metrics: map[string]float64{}, machine: machineInfo(w, o)}
	plain, err := runPass(w, o, nil)
	if err != nil {
		return nil, err
	}
	if !o.traced {
		plain.endToEnd(res.metrics)
		res.failures, res.attempted, res.failed = plain.failures, plain.attempted(), plain.failed()
		res.series = plain.series()
		return res, nil
	}
	tr, err := newTracer(clock{})
	if err != nil {
		return nil, err
	}
	defer tr.free()
	traced, err := runPass(w, o, tr)
	if err != nil {
		return nil, err
	}
	plain.endToEnd(res.metrics) // end-to-end figures, recovery included, stay untraced
	traced.perLayer(res.metrics)
	res.metrics["trace.overhead_frac"] = ratio(traced.cpuPerPkt(), plain.cpuPerPkt()) - 1
	res.failures = append(res.failures, plain.failures...)
	res.failures = append(res.failures, traced.failures...)
	gp, gt := plain.goodput(), traced.goodput()
	res.metrics["trace.goodput_ratio"] = gt
	if math.Abs(gt-gp) > goodputTolerance*gp {
		res.failures = append(res.failures, fmt.Sprintf(
			"goodput_ratio %.4f traced vs %.4f untraced: the traced run measures a different program", gt, gp))
	}
	if w.flowTTL > 0 && res.metrics["state.expired_per_s"] <= 0 {
		res.failures = append(res.failures, "state.expired_per_s is 0 with FlowTTL set: the traced run lost TTL aging")
	}
	if w.hasDeltas() && res.metrics["state.delta_update_frac"] <= 0 {
		res.failures = append(res.failures, "no delta-encoded updates though a middlebox declares delta prefixes: the traced run lost delta encoding")
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.spans.tsv", w.name, o.seed))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	if n := tr.dropped.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "ftcbench: span arena full, %d spans not recorded\n", n)
	}
	res.attempted, res.failed = traced.attempted(), traced.failed()
	res.series = traced.series()
	return res, nil
}

// goodputTolerance is how far traced and untraced goodput may differ before
// the traced run counts as a different program.
const goodputTolerance = 0.05

// pass is the raw outcome of one deployment measured over one window.
type pass struct {
	w        *workload
	windowNs int64
	w0, w1   uint64 // window sequence numbers [w0, w1)
	start    int64  // window open, run clock
	end      int64  // last packet due
	deadline int64  // delivery deadline

	due, delivered int
	lat, lag       []float64 // µs; lat covers the kept slices only
	slices         []windowSlice
	steal          []float64 // per slice: share of CPU time stolen by the hypervisor
	setups         []float64 // s
	tot            windowTotals
	smp            *sampler
	cpuNs          int64
	fo             *failover
	sendErrs       uint64
	failures       []string

	trc     traceCounts // tracer counters over the window
	spans   []span
	mbNames []string
}

func (p *pass) attempted() uint64 {
	n := uint64(p.due)
	if p.fo != nil {
		n += uint64(len(p.fo.totals)) + p.fo.errs
	}
	return n
}

func (p *pass) failed() uint64 {
	n := p.sendErrs
	if p.fo != nil {
		n += p.fo.errs
	}
	return n
}

func (p *pass) goodput() float64 {
	return ratio(float64(p.tot.replica[cAppBytes]), float64(p.tot.replica[cWireBytes]))
}

func (p *pass) cpuPerPkt() float64 { return ratio(float64(p.cpuNs), float64(p.delivered)) }

func (p *pass) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// runPass deploys the workload setupRounds times (keeping the last), runs
// the measurement window, drains, and checks the outputs.
func runPass(w *workload, o options, tr *tracer) (*pass, error) {
	clk := clock{base: time.Now()}
	if tr != nil {
		tr.clk = clk
	}
	capacity := int(o.window.Seconds()*1e6) + 1<<20 // above any rate this host reaches
	rec, err := newRecords(capacity)
	if err != nil {
		return nil, err
	}
	defer rec.free()
	rng := rand.New(rand.NewSource(o.seed))
	g, err := newGenerator(clk, rec, newFlows(w.flows, rng), tr)
	if err != nil {
		return nil, err
	}
	p := &pass{w: w, windowNs: int64(o.window)}

	var d *deployment
	for k := 0; k < setupRounds; k++ {
		if d != nil {
			d.close()
		}
		runtime.GC() // every deployment starts from a collected heap
		t0 := time.Now()
		if d, err = w.deploy(clk, rec, tr); err != nil {
			return nil, fmt.Errorf("deploying %s: %w", w.name, err)
		}
		g.attach(d)
		if err := g.warm(w.warm, lossAfter, warmTimeout); err != nil {
			diag := d.diagnose()
			d.close()
			return nil, fmt.Errorf("%s: %w (%s)", w.name, err, diag)
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
	}
	defer d.close()
	runtime.GC() // start every window from the same collected heap

	led := newLedger(d)
	smp := startSampler(d, led)
	var tc0 traceCounts
	if tr != nil {
		tc0 = tr.counts()
	}
	cpu0 := cpuTime()
	p.w0 = g.seq + 1
	errs0 := g.errs
	p.start = clk.now()
	end := p.start + int64(o.window)
	nSlices := int((int64(o.window) + int64(slice) - 1) / int64(slice))
	meter := startStealMeter(nSlices, slice)
	if w.failover {
		p.fo = startFailover(d, led, clk, end, tr)
	}
	if w.rate > 0 {
		err = g.openLoop(p.start, end, w.rate, rng)
	} else {
		err = g.closedLoop(end, w.inflight, lossAfter)
	}
	p.steal = meter.stop()
	if p.fo != nil {
		p.fo.wait()
	}
	p.end = max(end, clk.now())
	smp.stop()
	p.cpuNs = cpuTime() - cpu0
	p.tot = led.totals()
	if tr != nil {
		p.trc = tr.counts().sub(tc0)
	}
	p.smp = smp
	p.w1 = g.seq + 1
	p.sendErrs = g.errs - errs0
	if err != nil {
		return nil, fmt.Errorf("%s: generator: %w", w.name, err)
	}

	// Delivery: wait for every window packet or the deadline.
	p.deadline = p.end + int64(drainFor)
	for s := p.w0; s < p.w1; {
		if _, ok := rec.delivered(s, math.MaxInt64); ok || clk.now() > p.deadline {
			s++
			continue
		}
		time.Sleep(time.Millisecond)
	}
	p.collect(rec)

	// Correctness gate.
	if n := d.sink.bad.Load(); n > 0 {
		p.fail("%d frames at the sink do not parse as tgen packets", n)
	}
	if n := d.sink.dups.Load(); n > 0 {
		p.fail("%d packets delivered more than once", n)
	}
	if w.bridge {
		if t := p.tot.bridge; t.TruncatedDatagrams > 0 || t.OversizeDrops > 0 {
			p.fail("tunnel saw %d truncated datagrams and %d oversize drops", t.TruncatedDatagrams, t.OversizeDrops)
		}
		if err := checkConvergence(d.ring, d.ringLayout, quiesceFor); err != nil {
			p.fail("convergence: %v", err)
		}
	} else {
		// Convergence is checked once the chain has taken in every packet
		// and, with FlowTTL, every flow it created has had time to expire:
		// until then heads legitimately run ahead of their followers.
		if err := d.waitIdle(quiesceFor); err != nil {
			p.fail("%v", err)
		}
		time.Sleep(w.flowTTL + expiryGrace)
		if err := d.chain.WaitQuiescent(quiesceFor); err != nil {
			p.fail("quiescence: %v", err)
		} else if err := d.chain.CheckConvergence(); err != nil {
			p.fail("convergence: %v", err)
		}
	}
	if tr != nil {
		d.close() // every recording goroutine stops before the spans are read
		p.spans = tr.recorded()
		p.mbNames = append([]string(nil), tr.mbNames...)
	}
	return p, nil
}

// windowSlice is one slice of the window: packets due in it, delivered by
// the deadline, and their latencies.
type windowSlice struct {
	delivered int
	lat       []float64 // µs
	kept      bool
}

// sliceMedian is the median over the window's kept slices of f(slice).
func (p *pass) sliceMedian(f func(windowSlice) float64) float64 {
	var v []float64
	for _, sl := range p.slices {
		if sl.kept {
			v = append(v, f(sl))
		}
	}
	return quantile(v, 0.5)
}

// keepSlices marks the slices throughput and latency are measured over:
// those where the hypervisor stole at most stealCap of the CPU time, or, if
// fewer than half qualify, the half with the least stolen time. On a shared
// host a stolen CPU stalls every packet in flight, whatever the program.
func (p *pass) keepSlices() {
	order := make([]int, len(p.slices))
	for i := range order {
		order[i] = i
	}
	stolen := func(i int) float64 {
		if i < len(p.steal) {
			return p.steal[i]
		}
		return 0
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(stolen(a), stolen(b)) })
	for k, i := range order {
		p.slices[i].kept = stolen(i) <= stealCap || k < (len(order)+1)/2
	}
}

// collect computes delivery over the window's packets and, per slice of
// the window their due time falls in, throughput and latency.
func (p *pass) collect(rec *records) {
	p.due = int(p.w1 - p.w0)
	p.slices = make([]windowSlice, (p.windowNs+int64(slice)-1)/int64(slice))
	for s := p.w0; s < p.w1; s++ {
		if p.w.rate > 0 {
			p.lag = append(p.lag, float64(rec.sent[s]-rec.due[s])/1e3)
		}
		at, ok := rec.delivered(s, p.deadline)
		if !ok {
			continue
		}
		p.delivered++
		i := min(max(0, (rec.due[s]-p.start)/int64(slice)), int64(len(p.slices)-1))
		p.slices[i].delivered++
		p.slices[i].lat = append(p.slices[i].lat, float64(at-rec.due[s])/1e3)
	}
	p.keepSlices()
	for _, sl := range p.slices {
		if sl.kept {
			p.lat = append(p.lat, sl.lat...)
		}
	}
}

// series are the per-slice figures behind the slice medians, and the
// set-up time of each deployment.
func (p *pass) series() map[string][]float64 {
	out := map[string][]float64{"setup_s_by_round": p.setups, "steal_frac_by_slice": p.steal}
	for _, sl := range p.slices {
		out["throughput_pps_by_slice"] = append(out["throughput_pps_by_slice"], float64(sl.delivered)/slice.Seconds())
		out["latency_p50_us_by_slice"] = append(out["latency_p50_us_by_slice"], quantile(sl.lat, 0.5))
		out["latency_p99_us_by_slice"] = append(out["latency_p99_us_by_slice"], quantile(sl.lat, 0.99))
		out["kept_by_slice"] = append(out["kept_by_slice"], float64(btoi(sl.kept)))
	}
	return out
}

func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// endToEnd fills the end-to-end metrics.
func (p *pass) endToEnd(m map[string]float64) {
	m["throughput_pps"] = p.sliceMedian(func(sl windowSlice) float64 { return float64(sl.delivered) / slice.Seconds() })
	m["latency.samples"] = float64(len(p.lat))
	m["latency_p50_us"] = quantile(p.lat, 0.50)
	m["latency_p95_us"] = quantile(p.lat, 0.95)
	m["latency.p99_us"] = quantile(p.lat, 0.99)
	m["delivered_frac"] = ratio(float64(p.delivered), float64(p.due))
	m["goodput_ratio"] = p.goodput()
	m["heap_mb"] = float64(p.smp.heapPeak) / 1e6
	m["setup_s"] = quantile(append([]float64(nil), p.setups...), 0.5)
	m["gen.lag_us_p99"] = quantile(p.lag, 0.99)
	m["host.steal_frac"] = mean(p.steal)
	kept := 0
	for _, sl := range p.slices {
		kept += btoi(sl.kept)
	}
	m["host.slices_kept"] = float64(kept)
	p.recoveryMetrics(m)
}

// recoveryMetrics fills the orch.recovery_* metrics (zero without failover).
func (p *pass) recoveryMetrics(m map[string]float64) {
	fo := p.fo
	if fo == nil {
		for _, k := range []string{"orch.recovery_ms_p50", "orch.recovery_ms_p90", "orch.recovery_lost_pkts",
			"orch.recoveries", "orch.unsettled_crashes", "orch.init_ms_p50", "orch.fetch_ms_p50", "orch.reroute_ms_p50"} {
			m[k] = 0
		}
		return
	}
	n := float64(len(fo.totals))
	m["orch.recoveries"] = n
	m["orch.unsettled_crashes"] = float64(fo.unsettled)
	m["orch.recovery_ms_p50"] = quantile(fo.totals, 0.5)
	m["orch.recovery_ms_p90"] = quantile(fo.totals, 0.9)
	m["orch.recovery_lost_pkts"] = ratio(float64(p.due-p.delivered), n)
	m["orch.init_ms_p50"] = quantile(fo.init, 0.5)
	m["orch.fetch_ms_p50"] = quantile(fo.fetch, 0.5)
	m["orch.reroute_ms_p50"] = quantile(fo.reroute, 0.5)
}

// perLayer fills the per-layer metrics from counters, samples and spans.
func (p *pass) perLayer(m map[string]float64) {
	secs := float64(p.windowNs) / 1e9
	kpkt := float64(p.delivered) / 1e3
	r := p.tot.replica
	m["netsim.queue_depth_p99"] = quantile(p.smp.depth, 0.99)
	m["netsim.tail_drops"] = float64(p.tot.tailDrops)
	m["netsim.clamps"] = float64(p.tot.clamps)
	m["sched.steals_per_kpkt"] = ratio(float64(r[cSteals]), kpkt)
	m["sched.burst_mean"] = mean(p.smp.burst)
	m["core.propagating_per_kpkt"] = ratio(float64(r[cPropagating]), kpkt)
	m["core.piggyback_bytes_per_pkt"] = ratio(float64(r[cPiggybackBytes]), float64(p.delivered))
	m["core.repairs_per_kpkt"] = ratio(float64(r[cRepairs]), kpkt)
	m["core.duplicates_per_kpkt"] = ratio(float64(r[cDuplicates]), kpkt)
	m["core.apply_timeouts"] = float64(r[cApplyTimeouts])
	m["core.spilled_logs"] = float64(r[cSpilled])
	m["core.held_p99"] = quantile(p.smp.held, 0.99)
	m["core.fwd_pending_p99"] = quantile(p.smp.fwd, 0.99)
	m["core.stale_gen"] = float64(r[cStaleGen])
	m["core.fenced_held"] = float64(r[cFencedHeld])
	m["core.mb_errors"] = float64(r[cMBErrors])
	m["state.txn_attempts_per_pkt"] = ratio(float64(p.trc.procCalls), float64(p.trc.pktExecs))
	m["state.apply_updates_per_call"] = ratio(float64(p.trc.applyUpdates), float64(p.trc.applyCalls))
	m["state.expired_per_s"] = float64(p.trc.expired) / secs
	m["state.delta_update_frac"] = ratio(float64(p.trc.deltaUpdates), float64(p.trc.headUpdates))
	m["state.live_keys"] = mean(p.smp.liveKeys)
	t := p.tot.bridge
	m["trans.syscalls_per_frame"] = ratio(float64(t.SendSyscalls+t.RecvSyscalls), float64(t.FramesOut))
	m["trans.frames_per_dgram"] = ratio(float64(t.FramesOut), float64(t.DatagramsOut))
	m["trans.tunnel_goodput"] = ratio(float64(t.FrameBytesOut), float64(t.WireBytesOut))
	m["trans.truncated_dgrams"] = float64(t.TruncatedDatagrams)
	m["trans.oversize_drops"] = float64(t.OversizeDrops)
	p.spanMetrics(m)
}

// spanMetrics derives the per-request and per-call timings from the spans
// of window packets (and, for calls that carry no packet, spans that began
// inside the window).
func (p *pass) spanMetrics(m map[string]float64) {
	base := p.w0 / (sampleMask + 1)
	n := p.w1/(sampleMask+1) - base + 1
	sendEnd := make([]int64, n)
	arrive := make([]int64, n)
	firstProc := make([]int64, n)
	lastProc := make([]int64, n)
	last := uint8(len(p.mbNames) - 1)
	var exec, self, apply, snap, restore []float64
	proc := map[string][]float64{}
	inWindow := func(s span) bool { return s.rid >= p.w0 && s.rid < p.w1 }
	inTime := func(s span) bool { return s.start >= p.start && s.start <= p.end }
	for _, s := range p.spans {
		i := s.rid/(sampleMask+1) - base
		switch s.kind {
		case kSend:
			if inWindow(s) {
				sendEnd[i] = s.end
			}
		case kArrive:
			if inWindow(s) {
				arrive[i] = s.start
			}
		case kProcess:
			if !inWindow(s) {
				continue
			}
			name, _, _ := strings.Cut(p.mbNames[s.mb], "(")
			proc[name] = append(proc[name], float64(s.end-s.start)/1e3)
			if s.mb == 0 && (firstProc[i] == 0 || s.start < firstProc[i]) {
				firstProc[i] = s.start
			}
			if s.mb == last {
				lastProc[i] = max(lastProc[i], s.end)
			}
		case kExec:
			if inWindow(s) {
				exec = append(exec, float64(s.end-s.start)/1e3)
				self = append(self, float64(s.self)/1e3)
			}
		case kApply:
			if inTime(s) {
				apply = append(apply, float64(s.end-s.start)/1e3)
			}
		case kSnapshot:
			if inTime(s) {
				snap = append(snap, float64(s.end-s.start)/1e6)
			}
		case kRestore:
			if inTime(s) {
				restore = append(restore, float64(s.end-s.start)/1e6)
			}
		}
	}
	var wait, hold []float64
	for i := range sendEnd {
		if sendEnd[i] != 0 && firstProc[i] != 0 {
			wait = append(wait, float64(firstProc[i]-sendEnd[i])/1e3)
		}
		if arrive[i] != 0 && lastProc[i] != 0 {
			hold = append(hold, float64(arrive[i]-lastProc[i])/1e3)
		}
	}
	m["netsim.ingress_wait_us_p50"] = quantile(wait, 0.5)
	m["core.hold_us_p50"] = quantile(hold, 0.5)
	m["core.hold_us_p99"] = quantile(hold, 0.99)
	m["state.exec_us_p50"] = quantile(exec, 0.5)
	m["state.exec_us_p99"] = quantile(exec, 0.99)
	m["state.txn_self_us_p50"] = quantile(self, 0.5)
	m["state.apply_us_p50"] = quantile(apply, 0.5)
	m["state.snapshot_ms_p50"] = quantile(snap, 0.5)
	m["state.restore_ms_p50"] = quantile(restore, 0.5)
	for _, name := range []string{"Monitor", "MazuNAT", "SimpleNAT", "Firewall"} {
		m["mbox."+name+".process_us_p50"] = quantile(proc[name], 0.5)
	}
}

// traceCounts are the tracer's call counters at one instant.
type traceCounts struct {
	procCalls, pktExecs, applyCalls, applyUpdates, expired, headUpdates, deltaUpdates uint64
}

func (t *tracer) counts() traceCounts {
	return traceCounts{t.procCalls.Load(), t.pktExecs.Load(), t.applyCalls.Load(), t.applyUpdates.Load(),
		t.expired.Load(), t.headUpdates.Load(), t.deltaUpdates.Load()}
}

func (a traceCounts) sub(b traceCounts) traceCounts {
	return traceCounts{a.procCalls - b.procCalls, a.pktExecs - b.pktExecs, a.applyCalls - b.applyCalls,
		a.applyUpdates - b.applyUpdates, a.expired - b.expired, a.headUpdates - b.headUpdates,
		a.deltaUpdates - b.deltaUpdates}
}

// failover crashes each middlebox of the chain in turn and recovers it
// through the orchestrator, from the window's start until its end.
type failover struct {
	totals, init, fetch, reroute []float64 // ms
	errs                         uint64
	unsettled                    int // crashes made before the chain quiesced
	wg                           sync.WaitGroup
}

const (
	// recoveries is how many crashes a window spreads evenly: enough that
	// ten recoveries lie beyond p90.
	recoveries = 110
	// settleFor bounds the wait for the chain to quiesce before each crash.
	settleFor = 50 * time.Millisecond
)

func startFailover(d *deployment, led *ledger, clk clock, end int64, tr *tracer) *failover {
	f := &failover{}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		start := clk.now()
		every := (end - start) / (recoveries + 1)
		for k := 1; k <= recoveries; k++ {
			at := start + int64(k)*every
			time.Sleep(time.Duration(at - clk.now()))
			if d.chain.WaitQuiescent(settleFor) != nil { // traffic keeps flowing; a busy chain need not quiesce
				f.unsettled++
			}
			i := (k - 1) % d.chain.Len()
			t0 := clk.now()
			d.chain.Crash(i)
			rep := d.orch.Recover(i)
			t1 := clk.now()
			nr := d.chain.Replica(i)
			led.see(nr, d.replicaNode(i, nr))
			if tr != nil {
				tr.record(span{kind: kRecover, start: t0, end: t1, mb: uint8(i)})
			}
			if rep.Err != nil {
				f.errs++
				fmt.Fprintf(os.Stderr, "ftcbench: recovering ring position %d: %v\n", i, rep.Err)
				continue
			}
			f.totals = append(f.totals, float64(t1-t0)/1e6)
			f.init = append(f.init, float64(rep.Init)/1e6)
			f.fetch = append(f.fetch, float64(rep.StateFetch)/1e6)
			f.reroute = append(f.reroute, float64(rep.Reroute)/1e6)
		}
	}()
	return f
}

func (f *failover) wait() { f.wg.Wait() }
