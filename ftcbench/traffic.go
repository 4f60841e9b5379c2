package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/wire"
)

// Frame layout. The payload uses the tgen format so any tgen sink could read
// it: u32 magic | u32 flow | u64 seq | i64 timestamp. The timestamp slot
// carries the packet's due time (nanoseconds on the run clock).
const (
	frameSize   = 128
	payloadOff  = wire.EthernetHeaderLen + wire.IPv4MinHeaderLen + wire.UDPHeaderLen
	tgenMagic   = 0xF7C0BEEF
	payloadHdr  = 24
	ipSrcOff    = wire.EthernetHeaderLen + 12
	ipCsumOff   = wire.EthernetHeaderLen + 10
	udpSportOff = wire.EthernetHeaderLen + wire.IPv4MinHeaderLen
	udpCsumOff  = udpSportOff + 6
	chunk       = 32 // frames per generator send call
)

// clock is the run's monotonic clock in nanoseconds.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// records holds one slot per packet sequence number in anonymous mappings
// outside the Go heap, so the harness's own bookkeeping never shows in
// heap_mb. Slot 0 is unused; sequence numbers start at 1.
type records struct {
	due  []int64 // when the packet was due to be sent
	sent []int64 // when the generator handed it to the fabric
	// arr is written by the sink: 0 = not arrived, -1 = declared lost by the
	// closed-loop reaper, > 0 = arrival time, < -1 = arrival time (negated)
	// of a packet that arrived after being declared lost.
	arr  []int64
	maps [][]byte
}

func newRecords(n int) (*records, error) {
	r := &records{}
	for _, dst := range []*[]int64{&r.due, &r.sent, &r.arr} {
		m, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
		if err != nil {
			r.free()
			return nil, fmt.Errorf("mapping %d packet records: %w", n, err)
		}
		r.maps = append(r.maps, m)
		*dst = unsafe.Slice((*int64)(unsafe.Pointer(&m[0])), n)
	}
	return r, nil
}

func (r *records) free() {
	for _, m := range r.maps {
		_ = syscall.Munmap(m) // nothing to do about a failed unmap at exit
	}
	r.maps = nil
}

// delivered reports whether seq reached the sink by deadline, and when.
func (r *records) delivered(seq uint64, deadline int64) (int64, bool) {
	v := atomic.LoadInt64(&r.arr[seq])
	if v < -1 {
		v = -v
	}
	return v, v > 0 && v <= deadline
}

// flows maps sequence numbers to flows: flow order is a seed-derived
// permutation of the flow ring, cycled.
type flows struct {
	order []uint32
}

func newFlows(n int, rng *rand.Rand) flows {
	o := make([]uint32, n)
	for i, p := range rng.Perm(n) {
		o[i] = uint32(p)
	}
	return flows{order: o}
}

func (f flows) of(seq uint64) uint32 { return f.order[(seq-1)%uint64(len(f.order))] }

// template builds the frame every packet starts from; per-packet fields are
// stamped over it (see stamp).
func template() ([]byte, error) {
	p, err := wire.BuildUDP(wire.UDPSpec{
		SrcMAC: wire.MAC{0x02, 0x10, 0, 0, 0, 1}, DstMAC: wire.MAC{0x02, 0x20, 0, 0, 0, 1},
		Src: wire.Addr4(10, 1, 0, 0), Dst: wire.Addr4(192, 0, 2, 1),
		SrcPort: 1024, DstPort: 80,
		Payload: make([]byte, frameSize-payloadOff),
	})
	if err != nil {
		return nil, fmt.Errorf("building frame template: %w", err)
	}
	return append([]byte(nil), p.Buf...), nil
}

// stamp writes flow, sequence number and due time into buf (a copy of the
// template). Flow f is source 10.1.0.0+f/16 port 1024+f%16: distinct
// five-tuples inside MazuNAT's internal 10/8 network.
func stamp(buf []byte, flow uint32, seq uint64, due int64) {
	src := 0x0A010000 + flow>>4
	binary.BigEndian.PutUint32(buf[ipSrcOff:], src)
	buf[ipCsumOff], buf[ipCsumOff+1] = 0, 0
	binary.BigEndian.PutUint16(buf[ipCsumOff:], wire.Checksum(buf[wire.EthernetHeaderLen:wire.EthernetHeaderLen+wire.IPv4MinHeaderLen]))
	binary.BigEndian.PutUint16(buf[udpSportOff:], uint16(1024+flow&15))
	binary.BigEndian.PutUint16(buf[udpCsumOff:], 0) // UDP/IPv4 allows no checksum
	p := buf[payloadOff:]
	binary.BigEndian.PutUint32(p[0:], tgenMagic)
	binary.BigEndian.PutUint32(p[4:], flow)
	binary.BigEndian.PutUint64(p[8:], seq)
	binary.BigEndian.PutUint64(p[16:], uint64(due))
}

// payloadSeq reads the tgen sequence number of a packet, 0 if it carries no
// tgen payload.
func payloadSeq(pkt *wire.Packet) uint64 {
	p := pkt.Payload()
	if len(p) < payloadHdr || binary.BigEndian.Uint32(p) != tgenMagic {
		return 0
	}
	return binary.BigEndian.Uint64(p[8:])
}

// port is where the generator injects frames: a fabric node and the
// destination it sends to. The destination may move (recovery reroutes the
// chain ingress), so it is resolved per send.
type port struct {
	node *netsim.Node
	dst  func() netsim.NodeID
}

// generator is the benchmark's single traffic source.
type generator struct {
	clk   clock
	rec   *records
	flows flows
	ports []port
	sink  *sink
	tr    *tracer // nil when untraced

	tmpl   []byte
	bufs   [][]byte
	frames [][]byte
	seq    uint64 // last sequence number used
	base   uint64 // seq less the packets the current sink had received when warm-up ended
	lost   uint64 // closed loop: packets the reaper gave up on since then
	oldest uint64 // closed loop: first sequence number not yet resolved
	next   int    // round-robin cursor over ports
	errs   uint64 // sends the fabric refused
}

func newGenerator(clk clock, rec *records, fl flows, tr *tracer) (*generator, error) {
	t, err := template()
	if err != nil {
		return nil, err
	}
	g := &generator{clk: clk, rec: rec, flows: fl, tr: tr, tmpl: t, oldest: 1}
	for i := 0; i < chunk; i++ {
		g.bufs = append(g.bufs, make([]byte, len(t)))
	}
	return g, nil
}

// attach points the generator at a new deployment.
func (g *generator) attach(d *deployment) { g.ports, g.sink = d.ports, d.sink }

var errRecordsFull = errors.New("packet record space exhausted")

// send stamps and injects one chunk of packets with the given due times,
// on the flows the ring order gives their sequence numbers.
func (g *generator) send(dues []int64) error { return g.sendFlows(dues, nil) }

// sendFlows is send with explicit flows (nil: ring order).
func (g *generator) sendFlows(dues []int64, fl []uint32) error {
	if g.seq+uint64(len(dues)) >= uint64(len(g.rec.due)) {
		return errRecordsFull
	}
	g.frames = g.frames[:0]
	first := g.seq + 1
	for i, due := range dues {
		g.seq++
		f := g.flows.of(g.seq)
		if fl != nil {
			f = fl[i]
		}
		copy(g.bufs[i], g.tmpl)
		stamp(g.bufs[i], f, g.seq, due)
		g.rec.due[g.seq] = due
		g.frames = append(g.frames, g.bufs[i])
	}
	p := g.ports[g.next%len(g.ports)]
	g.next++
	t0 := g.clk.now()
	err := p.node.SendBurstBlocking(p.dst(), g.frames)
	t1 := g.clk.now()
	for s := first; s <= g.seq; s++ {
		g.rec.sent[s] = t0
		if g.tr != nil && g.tr.sampled(s) {
			g.tr.record(span{rid: s, kind: kSend, start: t0, end: t1})
		}
	}
	if err != nil {
		g.errs += uint64(len(dues))
	}
	return nil
}

// warmInflight bounds the warm-up's packets in flight, so a burst of
// warm-up traffic does not overrun a UDP socket buffer.
const warmInflight = 256

// warm is the deployment's warm-up: it sends n packets, one per flow in
// ring order, keeping at most warmInflight in flight, and returns once a
// packet of every one of those flows has reached the sink. A flow whose
// packet is lost (the tunnel is UDP) is sent again after lossAfter.
func (g *generator) warm(n int, lossAfter, timeout time.Duration) error {
	defer func() {
		// The closed loop counts in-flight packets from here: a warm-up
		// packet that was resent is not waiting for a window slot.
		g.base, g.lost, g.oldest = g.seq-g.sink.received.Load(), 0, g.seq+1
	}()
	type try struct {
		seq  uint64
		flow uint32
	}
	var pending []try // sent, not yet seen at the sink
	var fl []uint32
	dues := make([]int64, 0, chunk)
	first, next := g.seq+1, 0
	deadline := time.Now().Add(timeout)
	for next < n || len(pending) > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up: %d of %d flows not delivered within %v", n-next+len(pending), n, timeout)
		}
		now := g.clk.now()
		kept := pending[:0]
		fl = fl[:0]
		for _, t := range pending {
			switch {
			case atomic.LoadInt64(&g.rec.arr[t.seq]) != 0:
			case now-g.rec.sent[t.seq] > int64(lossAfter):
				fl = append(fl, t.flow)
			default:
				kept = append(kept, t)
			}
		}
		pending = kept
		for next < n && len(pending)+len(fl) < warmInflight {
			fl = append(fl, g.flows.of(first+uint64(next)))
			next++
		}
		if len(fl) == 0 {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		for k := 0; k < len(fl); k += chunk {
			part := fl[k:min(k+chunk, len(fl))]
			dues = dues[:0]
			for range part {
				dues = append(dues, now)
			}
			s0 := g.seq + 1
			if err := g.sendFlows(dues, part); err != nil {
				return err
			}
			for i, f := range part {
				pending = append(pending, try{s0 + uint64(i), f})
			}
		}
	}
	return nil
}

// closedLoop keeps up to window packets in flight until the clock reaches
// end. A packet not delivered within lossAfter is declared lost so its
// window slot is reused; it still counts as delivered if it arrives before
// the drain deadline.
func (g *generator) closedLoop(end int64, window int, lossAfter time.Duration) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	dues := make([]int64, 0, chunk)
	lastReap := int64(0)
	for {
		now := g.clk.now()
		if now >= end {
			return nil
		}
		if now-lastReap > int64(time.Millisecond) {
			g.reap(now - int64(lossAfter))
			lastReap = now
		}
		inflight := int(g.seq - g.base - g.sink.received.Load() - g.lost)
		room := window - inflight
		if room < chunk/2 {
			select {
			case <-g.sink.notify:
			case <-tick.C:
			}
			continue
		}
		dues = dues[:0]
		for i := 0; i < min(room, chunk); i++ {
			dues = append(dues, now)
		}
		if err := g.send(dues); err != nil {
			return err
		}
	}
}

// reap declares packets sent before cutoff and not yet arrived lost.
func (g *generator) reap(cutoff int64) {
	for g.oldest <= g.seq {
		s := g.oldest
		if atomic.LoadInt64(&g.rec.arr[s]) != 0 {
			g.oldest++
			continue
		}
		if g.rec.sent[s] > cutoff {
			return
		}
		if atomic.CompareAndSwapInt64(&g.rec.arr[s], 0, -1) {
			g.lost++
		}
		g.oldest++
	}
}

// openLoop offers Poisson arrivals at rate packets per second from start
// until end, drawing inter-arrival gaps from rng. Each packet is stamped
// with its due time; when the generator runs late it sends everything due
// at once.
func (g *generator) openLoop(start, end int64, rate float64, rng *rand.Rand) error {
	gap := func() int64 { return int64(rng.ExpFloat64() / rate * 1e9) }
	next := start + gap()
	dues := make([]int64, 0, chunk)
	for next < end {
		now := g.clk.now()
		if next > now {
			time.Sleep(time.Duration(next - now))
			now = g.clk.now()
		}
		dues = dues[:0]
		for len(dues) < chunk && next <= now && next < end {
			dues = append(dues, next)
			next += gap()
		}
		if len(dues) == 0 {
			continue
		}
		if err := g.send(dues); err != nil {
			return err
		}
	}
	return nil
}

// sink drains the chain's egress node and records every arrival.
type sink struct {
	node   *netsim.Node
	clk    clock
	rec    *records
	tr     *tracer
	notify chan struct{} // cap 1: wakes a closed-loop generator waiting for room

	received atomic.Uint64 // first arrivals of packets not declared lost
	dups     atomic.Uint64 // second arrivals of one sequence number
	bad      atomic.Uint64 // frames that do not parse as tgen packets
	wg       sync.WaitGroup
}

func startSink(node *netsim.Node, clk clock, rec *records, tr *tracer) *sink {
	s := &sink{node: node, clk: clk, rec: rec, tr: tr, notify: make(chan struct{}, 1)}
	s.wg.Add(1)
	go s.collect()
	return s
}

// stop crashes the sink node and waits for the collector to exit.
func (s *sink) stop() {
	s.node.Crash()
	s.wg.Wait()
}

func (s *sink) collect() {
	defer s.wg.Done()
	var pkt wire.Packet
	in := make([]netsim.Inbound, 64)
	for {
		n := s.node.RecvBurst(0, in)
		if n == 0 {
			return
		}
		now := s.clk.now()
		for i := 0; i < n; i++ {
			s.account(&pkt, in[i].Frame, now)
			netsim.ReleaseFrame(in[i].Frame)
			in[i] = netsim.Inbound{}
		}
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
}

func (s *sink) account(pkt *wire.Packet, frame []byte, now int64) {
	if wire.ParseInto(pkt, frame) != nil {
		s.bad.Add(1)
		return
	}
	seq := payloadSeq(pkt)
	if seq == 0 || seq >= uint64(len(s.rec.arr)) {
		s.bad.Add(1)
		return
	}
	slot := &s.rec.arr[seq]
	switch {
	case atomic.CompareAndSwapInt64(slot, 0, now):
		s.received.Add(1)
	case atomic.CompareAndSwapInt64(slot, -1, -now):
		// Declared lost by the closed loop, yet delivered: it counts if it
		// beat the delivery deadline.
	default:
		s.dups.Add(1)
		return
	}
	if s.tr != nil && s.tr.sampled(seq) {
		s.tr.record(span{rid: seq, kind: kArrive, start: now, end: now})
	}
}
