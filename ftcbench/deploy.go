package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/ftsfc/ftc"
	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/trans"
	"github.com/ftsfc/ftc/internal/wire"
)

// workers is the packet threads per replica: two, the core count of the
// host the figures in README.md were taken on. It is a workload property,
// fixed so results compare across machines.
const workers = 2

// deployment is one running system under test plus the benchmark's
// generator ports and sink attached to it.
type deployment struct {
	fabrics    []*netsim.Fabric
	chain      *core.Chain       // in-process fabric deployments
	orch       *ftc.Orchestrator // in-process fabric deployments
	ring       []*core.Replica   // bridge deployments: one replica per fabric
	ringLayout core.Ring         // bridge deployments: replication groups
	bridges    []*trans.Bridge   // bridge deployments: the chain's tunnels
	edges      []*trans.Bridge   // bridge deployments: generator and sink tunnels
	sink       *sink
	ports      []port
}

// replicas lists the chain's current replicas in ring order.
func (d *deployment) replicas() []*core.Replica {
	if d.chain == nil {
		return d.ring
	}
	out := make([]*core.Replica, d.chain.Len())
	for i := range out {
		out[i] = d.chain.Replica(i)
	}
	return out
}

// replicaNode returns the fabric node replica r (ring position i) runs on.
func (d *deployment) replicaNode(i int, r *core.Replica) *netsim.Node {
	if d.chain != nil {
		return d.fabrics[0].Node(r.SimID())
	}
	return d.fabrics[i].Node(r.SimID())
}

func (d *deployment) close() {
	if d.orch != nil {
		d.orch.Stop()
	}
	if d.chain != nil {
		d.chain.Stop()
	}
	for _, b := range append(append([]*trans.Bridge(nil), d.bridges...), d.edges...) {
		b.Close()
	}
	for _, r := range d.ring {
		r.Stop()
	}
	if d.sink != nil {
		d.sink.stop()
	}
	for _, f := range d.fabrics {
		f.Stop()
	}
}

// chainConfig is what ftc.Deploy configures, plus the workload's FlowTTL
// and, when traced, a state engine wrapped in timing shims.
func chainConfig(w *workload, mbs []core.Middlebox, tr *tracer) core.Config {
	cfg := core.Config{F: 1, Workers: workers, FlowTTL: w.flowTTL}
	if tr != nil {
		tr.mbNames = nil
		for i := range mbs {
			mbs[i] = tr.wrapMB(mbs[i])
		}
		cfg.NewStore = func(p int) state.Backend { return tr.wrapStore(state.New(p)) }
	}
	return cfg
}

// deployFabric assembles the chain the way ftc.Deploy does: one fabric, the
// chain's replicas, an orchestrator with its failure detector running, and
// the benchmark's generator and sink nodes.
func deployFabric(w *workload, clk clock, rec *records, tr *tracer) (*deployment, error) {
	fab := ftc.NewFabric(ftc.FabricConfig{})
	sinkNode := fab.AddNode("ftc-sink", netsim.NodeConfig{QueueCap: 1 << 16})
	mbs := w.chain()
	cfg := chainConfig(w, mbs, tr)
	chain := ftc.NewChain(cfg, fab, "ftc", mbs, sinkNode.ID())
	chain.Start()
	gen := fab.AddNode("ftc-gen", netsim.NodeConfig{})
	o := ftc.NewOrchestrator(ftc.OrchestratorConfig{}, fab, "ftc-orch", chain)
	o.Start()
	return &deployment{
		fabrics: []*netsim.Fabric{fab},
		chain:   chain,
		orch:    o,
		sink:    startSink(sinkNode, clk, rec, tr),
		ports:   []port{{node: gen, dst: chain.IngressID}},
	}, nil
}

// bridgeMTU is the tunnel packing budget of bridge-saturate: a 1500-byte
// Ethernet MTU less IPv4 and UDP headers.
const bridgeMTU = 1500 - 28

// deployBridge wires the chain the way cmd/ftcd does, in one process: every
// ring replica on its own fabric behind a trans.Bridge on loopback UDP/TCP.
// Two generator bridges (two source 4-tuples) feed replica 0 and the last
// replica releases to a sink bridge. The replicas get the TTL and delta
// prefixes core.Chain would derive from the middleboxes.
func deployBridge(w *workload, clk clock, rec *records, tr *tracer) (d *deployment, err error) {
	mbs := w.chain()
	cfg := chainConfig(w, mbs, tr)
	cfg.NumMB = len(mbs)
	cfg = cfg.WithDefaults()
	ring := cfg.Ring()
	tcfg := trans.Config{MTUBudget: bridgeMTU}
	d = &deployment{ringLayout: ring}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	ringIDs := make([]netsim.NodeID, ring.M())
	for i := range ringIDs {
		ringIDs[i] = netsim.NodeID(fmt.Sprintf("ftc-r%d", i))
	}
	const egressID = netsim.NodeID("ftc-egress")
	ttl := func(mb int) []string {
		if f, ok := mbs[mb].(core.FlowTTLer); ok {
			return f.FlowTTLPrefixes()
		}
		return nil
	}
	delta := func(mb int) []string {
		if p, ok := mbs[mb].(core.DeltaPrefixer); ok {
			return p.DeltaPrefixes()
		}
		return nil
	}

	for i := 0; i < ring.M(); i++ {
		fab := netsim.New(netsim.Config{})
		d.fabrics = append(d.fabrics, fab) // fabric i hosts replica i
		node := fab.AddNode(ringIDs[i], netsim.NodeConfig{
			Queues: cfg.NumIngressQueues(), QueueCap: 4096, Selector: wire.RSSSelector,
		})
		spec := core.ReplicaSpec{Index: i, Sim: node, Fabric: fab, RingIDs: ringIDs,
			TTLPrefixes: ttl, DeltaPrefixes: delta}
		if i < len(mbs) {
			spec.MB = mbs[i]
		}
		if i == ring.M()-1 {
			spec.Egress = egressID
		}
		d.ring = append(d.ring, core.NewReplica(cfg, spec))
		b, err := trans.NewBridge(fab, ringIDs[i], "", "", nil, tcfg)
		if err != nil {
			return d, err
		}
		d.bridges = append(d.bridges, b)
	}

	sinkFab := netsim.New(netsim.Config{})
	d.fabrics = append(d.fabrics, sinkFab)
	sinkNode := sinkFab.AddNode(egressID, netsim.NodeConfig{QueueCap: 1 << 16})
	d.sink = startSink(sinkNode, clk, rec, tr)
	sb, err := trans.NewBridge(sinkFab, egressID, "", "", nil, tcfg)
	if err != nil {
		return d, err
	}
	d.edges = append(d.edges, sb)
	sinkUDP, _ := sb.Addrs()

	for i, b := range d.bridges {
		for j, p := range d.bridges {
			if i == j {
				continue
			}
			udp, tcp := p.Addrs()
			if err := b.AddPeer(trans.Peer{ID: ringIDs[j], UDPAddr: udp, TCPAddr: tcp}); err != nil {
				return d, err
			}
		}
	}
	if err := d.bridges[len(d.bridges)-1].AddPeer(trans.Peer{ID: egressID, UDPAddr: sinkUDP}); err != nil {
		return d, err
	}
	for _, r := range d.ring {
		r.Start()
	}
	headUDP, headTCP := d.bridges[0].Addrs()
	for k := 0; k < 2; k++ {
		fab := netsim.New(netsim.Config{})
		d.fabrics = append(d.fabrics, fab)
		id := netsim.NodeID(fmt.Sprintf("gen-%d", k))
		node := fab.AddNode(id, netsim.NodeConfig{})
		b, err := trans.NewBridge(fab, id, "", "", []trans.Peer{{ID: ringIDs[0], UDPAddr: headUDP, TCPAddr: headTCP}}, tcfg)
		if err != nil {
			return d, err
		}
		d.edges = append(d.edges, b)
		d.ports = append(d.ports, port{node: node, dst: func() netsim.NodeID { return ringIDs[0] }})
	}
	return d, nil
}

// checkConvergence is core.Chain.CheckConvergence for replicas that are not
// managed by a Chain: after quiescence every follower store must equal its
// head's. It waits up to timeout for the followers to catch up first.
func checkConvergence(reps []*core.Replica, ring core.Ring, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for j := 0; j < ring.N; j++ {
		head := reps[j].Head()
		for _, i := range ring.Members(j)[1:] {
			f := reps[i].Follower(uint16(j))
			for !caughtUp(head.Vector(), f.Max()) {
				if time.Now().After(deadline) {
					return fmt.Errorf("mb %d: follower@%d did not catch up within %v", j, i, timeout)
				}
				time.Sleep(2 * time.Millisecond)
			}
			hs, fs := head.Store().Snapshot(), f.Store().Snapshot()
			sort.Slice(hs, func(a, b int) bool { return hs[a].Key < hs[b].Key })
			sort.Slice(fs, func(a, b int) bool { return fs[a].Key < fs[b].Key })
			if len(hs) != len(fs) {
				return fmt.Errorf("mb %d: head has %d keys, follower@%d has %d", j, len(hs), i, len(fs))
			}
			for k := range hs {
				if hs[k].Key != fs[k].Key || string(hs[k].Value) != string(fs[k].Value) {
					return fmt.Errorf("mb %d key %q: head=%x follower@%d=%x", j, hs[k].Key, hs[k].Value, i, fs[k].Value)
				}
			}
		}
	}
	return nil
}

func caughtUp(head, follower []uint64) bool {
	for p := range head {
		if follower[p] < head[p] {
			return false
		}
	}
	return true
}

// waitIdle waits until every replica's ingress queues and the sink's queue
// have stayed empty for a few milliseconds: the chain has taken in all
// offered traffic.
func (d *deployment) waitIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var buf []int
	for calm := 0; calm < 5; {
		busy := d.sink.node.QueueLen(0) > 0
		for i, r := range d.replicas() {
			if n := d.replicaNode(i, r); n != nil {
				for _, q := range n.QueueDepths(buf) {
					busy = busy || q > 0
				}
			}
		}
		if busy {
			calm = 0
		} else {
			calm++
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chain still has queued packets %v after the window", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// diagnose summarizes where packets went, for error messages.
func (d *deployment) diagnose() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sink received %d", d.sink.received.Load())
	for i, f := range d.fabrics {
		sent, delivered, dropped, lost := f.Stats()
		fmt.Fprintf(&b, "; fabric %d sent %d delivered %d dropped %d lost %d", i, sent, delivered, dropped, lost)
	}
	for i, r := range d.replicas() {
		s := r.Stats()
		fmt.Fprintf(&b, "; replica %d rx %d tx %d egress %d held %d", i, s.RxFrames.Load(), s.TxFrames.Load(), s.Egress.Load(), r.HeldPackets())
	}
	for i, br := range append(append([]*trans.Bridge(nil), d.bridges...), d.edges...) {
		s := br.Stats()
		fmt.Fprintf(&b, "; bridge %d out %d in %d", i, s.FramesOut, s.FramesIn)
	}
	return b.String()
}
