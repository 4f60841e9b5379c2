package mbox

import (
	"encoding/binary"
	"errors"
	"sync/atomic"

	"github.com/ftsfc/ftc/internal/hashx"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// ErrPortsExhausted is returned when a NAT runs out of external ports.
var ErrPortsExhausted = errors.New("mbox: NAT ports exhausted")

// natBinding is the value stored per flow: external address and port.
type natBinding struct {
	Addr wire.IPv4Addr
	Port uint16
}

func (b natBinding) encode() []byte {
	out := make([]byte, 6)
	copy(out[0:4], b.Addr[:])
	binary.BigEndian.PutUint16(out[4:6], b.Port)
	return out
}

func decodeBinding(v []byte) (natBinding, bool) {
	if len(v) != 6 {
		return natBinding{}, false
	}
	var b natBinding
	copy(b.Addr[:], v[0:4])
	b.Port = binary.BigEndian.Uint16(v[4:6])
	return b, true
}

// SimpleNAT provides basic source NAT: the first packet of a flow allocates
// an external port (a write to the shared allocator and the flow table);
// subsequent packets only read the flow's binding. This is Table 1's
// SimpleNAT: state reads per packet, state writes per flow.
type SimpleNAT struct {
	extIP     wire.IPv4Addr
	portBase  uint16
	portCount uint16
}

// NewSimpleNAT creates a NAT translating to extIP with ports allocated from
// [portBase, portBase+portCount).
func NewSimpleNAT(extIP wire.IPv4Addr, portBase, portCount uint16) *SimpleNAT {
	if portCount == 0 {
		portCount = 20000
	}
	return &SimpleNAT{extIP: extIP, portBase: portBase, portCount: portCount}
}

// Name implements core.Middlebox.
func (n *SimpleNAT) Name() string { return "SimpleNAT" }

// FlowTTLPrefixes implements core.FlowTTLer: per-flow bindings age out under
// Config.FlowTTL. The "nat:f:" prefix is disjoint from the shared
// "nat:nextport" allocator, which must never expire.
func (n *SimpleNAT) FlowTTLPrefixes() []string { return []string{"nat:f:"} }

// Process rewrites the packet's source to the flow's external binding,
// allocating one on the first packet. Connection persistence — every packet
// of a flow gets the same binding — is guaranteed by transaction isolation
// on the flow-table entry (§3.2).
func (n *SimpleNAT) Process(pkt *wire.Packet, tx state.Txn) (core.Verdict, error) {
	t := pkt.FiveTuple()
	if t.Proto != wire.ProtoUDP && t.Proto != wire.ProtoTCP {
		return core.Forward, nil
	}
	key := flowKey("nat:f:", t)
	v, ok, err := tx.Get(key)
	if err != nil {
		return core.Drop, err
	}
	var b natBinding
	if ok {
		if b, ok = decodeBinding(v); !ok {
			return core.Drop, errors.New("mbox: corrupt NAT binding")
		}
	} else {
		next, err := counterAdd(tx, "nat:nextport", 1)
		if err != nil {
			return core.Drop, err
		}
		if next > uint64(n.portCount) {
			return core.Drop, ErrPortsExhausted
		}
		b = natBinding{Addr: n.extIP, Port: n.portBase + uint16(next-1)}
		if err := tx.Put(key, b.encode()); err != nil {
			return core.Drop, err
		}
	}
	pkt.SetIPSrc(b.Addr)
	pkt.SetSrcPort(b.Port)
	return core.Forward, nil
}

// MazuNAT reimplements the core behaviour of the Click mazu-nat.click
// configuration the paper evaluates: source NAT for outbound traffic with a
// reverse mapping so inbound traffic is translated back, plus flow
// statistics. Established flows perform only reads on shared state (the
// paper's read-heavy workload); flow setup writes the flow's entry and a
// flow counter.
//
// As in the Click rewriter's flow table, a flow is one entry serving both
// directions: keyed by the flow's external port ("mnat:p:"), holding its
// internal five-tuple. A flow's port is one of probeLen candidates derived
// from a hash of its five-tuple, all in one state partition: outbound
// packets find the entry by probing them, setup takes the first free one
// (so ports of expired flows are reused), and every packet of the flow
// locks one partition. The flow counter is sharded likewise, one
// "mnat:flows:" key per partition.
type MazuNAT struct {
	extIP        wire.IPv4Addr
	portBase     uint16
	portCount    uint16
	internalNet  wire.IPv4Addr
	internalBits uint8

	layout atomic.Pointer[portLayout] // built on the first transaction
}

// NewMazuNAT creates a MazuNAT for the given internal network, translating
// to ports [portBase, portBase+portCount).
func NewMazuNAT(extIP wire.IPv4Addr, portBase, portCount uint16, internalNet wire.IPv4Addr, internalBits uint8) *MazuNAT {
	if portCount == 0 {
		portCount = 20000
	}
	return &MazuNAT{
		extIP: extIP, portBase: portBase, portCount: portCount,
		internalNet: internalNet, internalBits: internalBits,
	}
}

// Name implements core.Middlebox.
func (n *MazuNAT) Name() string { return "MazuNAT" }

// FlowTTLPrefixes implements core.FlowTTLer: flow entries age out under
// Config.FlowTTL, freeing their ports; the flow counters never do. Packets
// in either direction refresh their flow's entry.
func (n *MazuNAT) FlowTTLPrefixes() []string { return []string{"mnat:p:"} }

func (n *MazuNAT) isInternal(a wire.IPv4Addr) bool {
	return maskMatch(a, n.internalNet, n.internalBits)
}

// Process translates outbound packets (allocating a port on flow setup)
// and reverse-translates inbound packets addressed to the external IP.
func (n *MazuNAT) Process(pkt *wire.Packet, tx state.Txn) (core.Verdict, error) {
	t := pkt.FiveTuple()
	if t.Proto != wire.ProtoUDP && t.Proto != wire.ProtoTCP {
		return core.Forward, nil
	}
	if n.isInternal(t.Src) {
		return n.outbound(pkt, tx, t)
	}
	if t.Dst == n.extIP {
		return n.inbound(pkt, tx, t)
	}
	return core.Forward, nil
}

func (n *MazuNAT) outbound(pkt *wire.Packet, tx state.Txn, t wire.FiveTuple) (core.Verdict, error) {
	l := n.ports(tx)
	tup := tupleBytes(t)
	h := mix64(hashx.Sum64(tup[:]))
	list, port := l.lists[h%uint64(len(l.lists))], -1
	for i := 0; i < l.probe; i++ {
		idx := l.candidate(list, h, i)
		v, ok, err := peek(tx, l.key(idx))
		switch {
		case err != nil:
			return core.Drop, err
		case !ok && port < 0:
			port = idx // first free candidate; keep probing for an entry
		case ok && string(v) == string(tup[:]):
			// Established flow: this read refreshes the entry's TTL.
			_, _, err := tx.Get(l.key(idx))
			n.translate(pkt, l, idx)
			return core.Forward, err
		}
	}
	if port < 0 {
		return core.Drop, ErrPortsExhausted
	}
	if err := tx.Put(l.key(port), tup[:]); err != nil {
		return core.Drop, err
	}
	// Flow statistics, written at setup only (keeps the middlebox
	// read-heavy as in the paper's characterization).
	if _, err := counterAdd(tx, l.flows[l.placeOf(l.key(port))], 1); err != nil {
		return core.Drop, err
	}
	n.translate(pkt, l, port)
	return core.Forward, nil
}

func (n *MazuNAT) translate(pkt *wire.Packet, l *portLayout, idx int) {
	pkt.SetIPSrc(n.extIP)
	pkt.SetSrcPort(l.base + uint16(idx))
}

func (n *MazuNAT) inbound(pkt *wire.Packet, tx state.Txn, t wire.FiveTuple) (core.Verdict, error) {
	l := n.ports(tx)
	idx := int(t.DstPort) - int(l.base)
	if idx < 0 || idx >= l.count {
		return core.Drop, nil // not a NAT port: drop unsolicited traffic
	}
	v, ok, err := tx.Get(l.key(idx))
	if err != nil {
		return core.Drop, err
	}
	if !ok || len(v) != 13 {
		return core.Drop, nil // no binding: drop unsolicited inbound traffic
	}
	pkt.SetIPDst(wire.IPv4Addr(v[0:4]))
	pkt.SetDstPort(binary.BigEndian.Uint16(v[8:10]))
	return core.Forward, nil
}

// peek reads key without refreshing its TTL when the transaction supports
// KeyPlacer, so probing other flows' entries does not keep them alive.
func peek(tx state.Txn, key string) ([]byte, bool, error) {
	if kp, ok := tx.(state.KeyPlacer); ok {
		return kp.Peek(key)
	}
	return tx.Get(key)
}

// ports returns the port layout for the partition count of tx's store;
// transactions without KeyPlacer count as one partition.
func (n *MazuNAT) ports(tx state.Txn) *portLayout {
	parts := 1
	kp, ok := tx.(state.KeyPlacer)
	if ok {
		parts = kp.NumPartitions()
	}
	if l := n.layout.Load(); l != nil && l.parts == parts {
		return l
	}
	l := newPortLayout(n.portBase, int(n.portCount), parts, kp)
	n.layout.Store(l)
	return l
}

// probeLen is a flow's candidate count when every partition holds at least
// that many ports. Candidates are drawn independently, so setup fails only
// if all are taken: at half the ports in use, about once in 10^19 setups.
const probeLen = 64

// portLayout holds a MazuNAT's port keys and candidate lists for one
// partition count; ports are indices from base. Normally each partition's
// ports form one list. A NAT too small to give every partition probeLen
// ports has a single list of all ports, and a flow's candidates are all of
// them, in order from a hashed start.
type portLayout struct {
	base    uint16
	count   int
	parts   int
	keys    string     // every port's key, 9 bytes each
	lists   [][]uint16 // candidate lists of port indices
	probe   int        // candidates per flow
	flows   []string   // per partition: a flow-counter shard key in it
	placeOf func(key string) uint16
}

func newPortLayout(base uint16, count, parts int, kp state.KeyPlacer) *portLayout {
	l := &portLayout{base: base, count: count, parts: parts, flows: make([]string, parts),
		placeOf: func(string) uint16 { return 0 }}
	if kp != nil {
		l.placeOf = kp.PartitionOf
	}
	keys := make([]byte, 0, count*9)
	for i := 0; i < count; i++ {
		keys = binary.BigEndian.AppendUint16(append(keys, "mnat:p:"...), base+uint16(i))
	}
	l.keys = string(keys)
	l.lists, l.probe = make([][]uint16, parts), probeLen
	all := make([]uint16, count)
	for i := range all {
		all[i] = uint16(i)
		p := l.placeOf(l.key(i))
		l.lists[p] = append(l.lists[p], uint16(i))
	}
	for _, ports := range l.lists {
		if len(ports) < probeLen {
			l.lists, l.probe = [][]uint16{all}, count
			break
		}
	}
	for i, missing := 0, parts; missing > 0 && i <= 0xffff; i++ {
		k := string(binary.BigEndian.AppendUint16([]byte("mnat:flows:"), uint16(i)))
		if p := l.placeOf(k); l.flows[p] == "" {
			l.flows[p], missing = k, missing-1
		}
	}
	return l
}

// key returns port index idx's entry key, a substring of l.keys.
func (l *portLayout) key(idx int) string { return l.keys[idx*9 : idx*9+9] }

// candidate returns the i-th candidate port index, from list, of the flow
// with hash h.
func (l *portLayout) candidate(list []uint16, h uint64, i int) int {
	if len(l.lists) == 1 && l.probe == l.count {
		return int(list[(h+uint64(i))%uint64(len(list))])
	}
	return int(list[mix64(h+uint64(i+1)*0x9e3779b97f4a7c15)%uint64(len(list))])
}

// mix64 is the splitmix64 finalizer. FNV-1a's low bits depend only on the
// low bits of each input byte, so its output is mixed before use modulo a
// list length.
func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
