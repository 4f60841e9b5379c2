// Package mbox implements the middleboxes of the paper's evaluation
// (Table 1) against the FTC state API:
//
//   - MazuNAT: the core of a commercial NAT — read-heavy with a moderate
//     write load (per-flow mappings, reverse mappings, flow statistics);
//   - SimpleNAT: basic NAT functionality (per-flow mapping only);
//   - Monitor: a read/write-heavy per-packet counter with a sharing-level
//     parameter controlling how many threads share one state variable;
//   - Gen: a write-heavy middlebox with a state-size parameter;
//   - Firewall: a stateless rule-based filter.
//
// All state reads and writes go through the packet transaction (§4.1), so
// every middlebox here is fault tolerant when run under FTC and equally
// runnable under the NF and FTMB harnesses for comparison.
package mbox

import (
	"encoding/binary"
	"fmt"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// flowKey renders a five-tuple as a state-store key.
func flowKey(prefix string, t wire.FiveTuple) string {
	b := tupleBytes(t)
	return prefix + string(b[:])
}

// tupleBytes encodes a five-tuple: addresses, ports, protocol.
func tupleBytes(t wire.FiveTuple) (b [13]byte) {
	copy(b[0:4], t.Src[:])
	copy(b[4:8], t.Dst[:])
	binary.BigEndian.PutUint16(b[8:10], t.SrcPort)
	binary.BigEndian.PutUint16(b[10:12], t.DstPort)
	b[12] = t.Proto
	return b
}

// counterAdd increments a uint64 counter key inside a transaction.
func counterAdd(tx state.Txn, key string, delta uint64) (uint64, error) {
	v, _, err := tx.Get(key)
	if err != nil {
		return 0, err
	}
	var n uint64
	if len(v) == 8 {
		n = binary.BigEndian.Uint64(v)
	}
	n += delta
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], n)
	return n, tx.Put(key, buf[:])
}

// Monitor counts packets per flow group. Its sharing level controls how
// many worker threads share one counter (§7.1): level 1 gives each thread
// its own variable; level 8 shares one variable among all eight threads.
// Monitor is the paper's read/write-heavy middlebox: one read and one write
// of shared state per packet.
type Monitor struct {
	sharing int
	workers int
}

// NewMonitor creates a Monitor with the given sharing level (≥1) for a
// deployment with the given number of worker threads.
func NewMonitor(sharing, workers int) *Monitor {
	if sharing < 1 {
		sharing = 1
	}
	if workers < 1 {
		workers = 1
	}
	return &Monitor{sharing: sharing, workers: workers}
}

// Name implements core.Middlebox.
func (m *Monitor) Name() string { return fmt.Sprintf("Monitor(share=%d)", m.sharing) }

// DeltaPrefixes implements core.DeltaPrefixer: every Monitor key is an
// 8-byte big-endian packet counter, so its piggyback updates can travel as
// one-byte deltas instead of key+value pairs.
func (m *Monitor) DeltaPrefixes() []string { return []string{"pkt-count-"} }

// Process counts the packet into the counter its flow's worker group
// shares. With sharing level s and w workers, workers are partitioned into
// w/s groups, each sharing one counter — reproducing the contention the
// paper sweeps in Figure 6.
func (m *Monitor) Process(pkt *wire.Packet, tx state.Txn) (core.Verdict, error) {
	worker := int(wire.RSSHash(pkt.Buf) % uint64(m.workers))
	group := worker / m.sharing
	if _, err := counterAdd(tx, fmt.Sprintf("pkt-count-%d", group), 1); err != nil {
		return core.Drop, err
	}
	return core.Forward, nil
}

// Gen is the paper's write-heavy microbenchmark middlebox: every packet
// writes a configurable amount of state, exercising piggyback-size costs
// (Figure 5).
type Gen struct {
	name      string
	stateSize int
	keys      int
	keyNames  []string // precomputed "gen-<i>": no per-packet formatting
	perFlow   bool     // key by five-tuple instead of a fixed key set
}

// GenFlowPrefix names Gen's per-flow keys (NewGenFlows mode).
const GenFlowPrefix = "genf:"

// NewGen creates a Gen writing stateSize bytes per packet across keys
// distinct state variables (keys ≤ 1 collapses to a single variable).
func NewGen(stateSize, keys int) *Gen {
	if stateSize < 1 {
		stateSize = 1
	}
	if keys < 1 {
		keys = 1
	}
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("gen-%d", i)
	}
	return &Gen{name: fmt.Sprintf("Gen(state=%dB)", stateSize), stateSize: stateSize, keys: keys, keyNames: names}
}

// NewGenFlows creates a Gen that writes stateSize bytes into a per-flow key
// derived from the packet's five-tuple instead of a fixed key set. A fixed
// key set serializes unrelated flows on the handful of partitions those
// keys hash to; per-flow keys spread transactions across all partitions, so
// scaled multi-worker workloads measure scheduling instead of a state-lock
// convoy. Per-flow keys also age out under Config.FlowTTL.
func NewGenFlows(stateSize int) *Gen {
	if stateSize < 1 {
		stateSize = 1
	}
	return &Gen{name: fmt.Sprintf("GenFlows(state=%dB)", stateSize), stateSize: stateSize, perFlow: true}
}

// Name implements core.Middlebox.
func (g *Gen) Name() string { return g.name }

// FlowTTLPrefixes implements core.FlowTTLer: per-flow Gen state ages out;
// the fixed-key mode shares its keys across all flows and never expires.
func (g *Gen) FlowTTLPrefixes() []string {
	if !g.perFlow {
		return nil
	}
	return []string{GenFlowPrefix}
}

// Process writes stateSize bytes derived from the packet into one of the
// configured keys (or the packet's flow key in per-flow mode).
func (g *Gen) Process(pkt *wire.Packet, tx state.Txn) (core.Verdict, error) {
	seed := wire.RSSHash(pkt.Buf)
	var key string
	if g.perFlow {
		key = flowKey(GenFlowPrefix, pkt.FiveTuple())
	} else {
		key = g.keyNames[seed%uint64(g.keys)]
	}
	val := make([]byte, g.stateSize)
	// Derive deterministic contents from the packet so replicas can be
	// compared byte-for-byte in tests.
	for i := range val {
		val[i] = byte(seed >> (uint(i%8) * 8))
	}
	if err := tx.Put(key, val); err != nil {
		return core.Drop, err
	}
	return core.Forward, nil
}

// Rule is one firewall rule matched against a packet's five-tuple.
// Zero-valued fields are wildcards.
type Rule struct {
	Proto   uint8
	SrcNet  wire.IPv4Addr
	SrcBits uint8
	DstNet  wire.IPv4Addr
	DstBits uint8
	DstPort uint16
	Allow   bool
}

func maskMatch(addr, network wire.IPv4Addr, bits uint8) bool {
	if bits == 0 {
		return true
	}
	mask := ^uint32(0) << (32 - uint32(bits))
	return addr.Uint32()&mask == network.Uint32()&mask
}

// Match reports whether the rule applies to the tuple.
func (r Rule) Match(t wire.FiveTuple) bool {
	if r.Proto != 0 && r.Proto != t.Proto {
		return false
	}
	if r.DstPort != 0 && r.DstPort != t.DstPort {
		return false
	}
	return maskMatch(t.Src, r.SrcNet, r.SrcBits) && maskMatch(t.Dst, r.DstNet, r.DstBits)
}

// Firewall is the stateless rule-based filter of Table 1: first matching
// rule wins; the default action applies when nothing matches.
type Firewall struct {
	rules        []Rule
	defaultAllow bool
}

// NewFirewall creates a firewall with the given ruleset and default action.
func NewFirewall(rules []Rule, defaultAllow bool) *Firewall {
	return &Firewall{rules: rules, defaultAllow: defaultAllow}
}

// Name implements core.Middlebox.
func (f *Firewall) Name() string { return "Firewall" }

// Process filters the packet; it performs no state access (stateless).
func (f *Firewall) Process(pkt *wire.Packet, _ state.Txn) (core.Verdict, error) {
	t := pkt.FiveTuple()
	for _, r := range f.rules {
		if r.Match(t) {
			if r.Allow {
				return core.Forward, nil
			}
			return core.Drop, nil
		}
	}
	if f.defaultAllow {
		return core.Forward, nil
	}
	return core.Drop, nil
}
