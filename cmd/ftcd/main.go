// Command ftcd runs a single FTC chain replica as an OS process. The data
// plane is tunneled over UDP and the control plane (repair, recovery state
// fetch, heartbeats) over TCP, so a chain can span processes or machines.
//
// A three-middlebox chain on one host:
//
//	ftcd -index 0 -mb monitor -chain monitor,firewall,nat -f 1 \
//	     -listen-udp :7000 -listen-tcp :7100 \
//	     -peer 1=127.0.0.1:7001/127.0.0.1:7101 \
//	     -peer 2=127.0.0.1:7002/127.0.0.1:7102 \
//	     -burst 32 -mtu-budget 8972 \
//	     -egress 127.0.0.1:7999
//	ftcd -index 1 ... (and so on for each ring position)
//
// The data plane speaks the batched tunnel format of DESIGN.md §8: each
// UDP datagram packs up to -burst length-prefixed frames bound for the
// same peer, flushed early when a datagram would exceed -mtu-budget bytes.
// -burst also sets the replica's in-process vector-processing batch size,
// so one knob tunes the whole pipeline; -burst 1 reproduces the per-packet
// transport. On Linux the socket path moves whole vectors of those packed
// datagrams per syscall (sendmmsg/recvmmsg) across -sockets SO_REUSEPORT
// sockets; -no-mmsg falls back to one syscall per datagram with an
// unchanged wire format, so mixed deployments interoperate. Traffic enters
// by sending packed frames (as ftcgen sends them) to replica 0's UDP
// address; released packets leave from the last replica to -egress in the
// same packed format.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/mbox"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/trans"
	"github.com/ftsfc/ftc/internal/wire"
)

type peerFlags map[int]trans.Peer

func (p peerFlags) String() string { return fmt.Sprintf("%d peers", len(p)) }

func (p peerFlags) Set(v string) error {
	var idx int
	var udpAddr, tcpAddr string
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("peer %q: want index=udp/tcp", v)
	}
	if _, err := fmt.Sscanf(parts[0], "%d", &idx); err != nil {
		return fmt.Errorf("peer %q: bad index", v)
	}
	addrs := strings.SplitN(parts[1], "/", 2)
	udpAddr = addrs[0]
	if len(addrs) == 2 {
		tcpAddr = addrs[1]
	}
	p[idx] = trans.Peer{ID: ringID(idx), UDPAddr: udpAddr, TCPAddr: tcpAddr}
	return nil
}

func ringID(i int) netsim.NodeID { return netsim.NodeID(fmt.Sprintf("ftc-r%d", i)) }

// buildMB constructs a middlebox by name.
func buildMB(name string, workers int) (core.Middlebox, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "monitor":
		return mbox.NewMonitor(1, workers), nil
	case "firewall":
		return mbox.NewFirewall(nil, true), nil
	case "nat", "simplenat":
		return mbox.NewSimpleNAT(wire.Addr4(203, 0, 113, 1), 10000, 40000), nil
	case "mazunat":
		return mbox.NewMazuNAT(wire.Addr4(203, 0, 113, 1), 10000, 40000, wire.Addr4(10, 0, 0, 0), 8), nil
	case "gen":
		return mbox.NewGen(64, 16), nil
	case "none", "":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown middlebox %q (monitor|firewall|nat|mazunat|gen|none)", name)
	}
}

// replicaSpec describes ring position index of the chain named by
// chainSpec (a comma-separated middlebox list) the way core.Chain would:
// the hosted middlebox and the TTL and delta prefixes of every middlebox
// in the chain. Every replica derives the prefixes from the chain alone,
// so they agree across the ring; mbName, if set, must name chain[index]
// (or the hosted middlebox of an extension replica past the chain's
// end). Fabric wiring is left to the caller. It also returns the chain's
// middlebox count.
func replicaSpec(chainSpec, mbName string, index, workers int) (core.ReplicaSpec, int, error) {
	names := strings.Split(chainSpec, ",")
	mbs := make([]core.Middlebox, len(names))
	for i, n := range names {
		var err error
		if mbs[i], err = buildMB(n, workers); err != nil {
			return core.ReplicaSpec{}, 0, err
		}
	}
	spec := core.ReplicaSpec{Index: index}
	if index < len(mbs) {
		spec.MB = mbs[index]
	}
	if mbName != "" {
		hosted, err := buildMB(mbName, workers)
		if err != nil {
			return core.ReplicaSpec{}, 0, err
		}
		if index < len(mbs) && mbKind(hosted) != mbKind(spec.MB) {
			return core.ReplicaSpec{}, 0, fmt.Errorf("-mb %q differs from -chain position %d (%q)", mbName, index, names[index])
		}
		spec.MB = hosted
	}
	spec.TTLPrefixes, spec.DeltaPrefixes = core.ChainPrefixes(mbs)
	return spec, len(mbs), nil
}

// mbKind names a middlebox's type, "" for none.
func mbKind(mb core.Middlebox) string {
	if mb == nil {
		return ""
	}
	return mb.Name()
}

func main() {
	var (
		index     = flag.Int("index", 0, "this replica's ring position")
		chainSpec = flag.String("chain", "monitor", "comma-separated middlebox list defining the chain")
		mbName    = flag.String("mb", "", "middlebox this replica hosts: defaults to, and must match, chain[index]; extension replicas past the chain use none")
		f         = flag.Int("f", 1, "failures to tolerate")
		workers   = flag.Int("workers", 2, "packet worker threads")
		listenUDP = flag.String("listen-udp", "127.0.0.1:0", "data-plane listen address")
		listenTCP = flag.String("listen-tcp", "127.0.0.1:0", "control-plane listen address")
		egress    = flag.String("egress", "", "UDP address released packets are sent to (last replica only)")
		burst     = flag.Int("burst", 0, "frames per batch, in-process and on the tunnel (0 = adaptive NAPI-style sizing, 1 = per-packet)")
		maxBurst  = flag.Int("max-burst", netsim.DefaultMaxBurst, "adaptive burst ceiling (with -burst 0)")
		mtuBudget = flag.Int("mtu-budget", trans.DefaultMTUBudget, "tunnel datagram packing budget in bytes")
		sockets   = flag.Int("sockets", 0, "SO_REUSEPORT data-plane sockets sharing the UDP port (0 = GOMAXPROCS; non-Linux always 1)")
		sockBuf   = flag.Int("sockbuf", 0, "requested SO_RCVBUF/SO_SNDBUF per data-plane socket in bytes (0 = OS default)")
		noMMsg    = flag.Bool("no-mmsg", false, "disable sendmmsg/recvmmsg batching, one syscall per datagram (wire format unchanged)")
		minTerm   = flag.Uint64("min-controller-term", 0, "preset the controller fence floor: control commands below this term are rejected, so a leader deposed while this replica was down cannot adopt it (DESIGN.md \u00a714)")
	)
	peers := peerFlags{}
	flag.Var(peers, "peer", "remote ring node: index=udpaddr[/tcpaddr] (repeatable)")
	flag.Parse()

	spec, numMB, err := replicaSpec(*chainSpec, *mbName, *index, *workers)
	if err != nil {
		log.Fatalf("ftcd: %v", err)
	}

	cfg := core.Config{F: *f, NumMB: numMB, Workers: *workers, Burst: *burst,
		MaxBurst: *maxBurst}.WithDefaults()
	ring := cfg.Ring()
	if *index < 0 || *index >= ring.M() {
		log.Fatalf("ftcd: index %d out of ring range 0..%d", *index, ring.M()-1)
	}

	fabric := netsim.New(netsim.Config{})
	defer fabric.Stop()

	local := fabric.AddNode(ringID(*index), netsim.NodeConfig{
		Queues:   cfg.NumIngressQueues(),
		QueueCap: 4096,
		Selector: wire.RSSSelector,
	})

	// Egress proxy: the bridge tunnels frames for this node to -egress.
	egressID := netsim.NodeID("")
	var peerList []trans.Peer
	for i := 0; i < ring.M(); i++ {
		if i == *index {
			continue
		}
		p, ok := peers[i]
		if !ok {
			log.Fatalf("ftcd: missing -peer for ring position %d", i)
		}
		peerList = append(peerList, p)
	}
	if *egress != "" {
		egressID = "ftc-egress"
		peerList = append(peerList, trans.Peer{ID: egressID, UDPAddr: *egress})
	}

	spec.Sim, spec.Fabric, spec.Egress = local, fabric, egressID
	spec.RingIDs = make([]netsim.NodeID, ring.M())
	for i := range spec.RingIDs {
		spec.RingIDs[i] = ringID(i)
	}
	replica := core.NewReplica(cfg, spec)
	if *minTerm > 0 {
		// Raise the fence before the control plane is reachable: a boot-time
		// floor closes the window where a deposed leader could adopt a
		// freshly restarted replica with stale recovery commands.
		replica.FenceTerm(*minTerm)
	}
	replica.Start()
	defer replica.Stop()

	bridge, err := trans.NewBridge(fabric, local.ID(), *listenUDP, *listenTCP, peerList,
		trans.Config{Burst: *burst, MTUBudget: *mtuBudget,
			Sockets: *sockets, SocketBuf: *sockBuf, NoMMsg: *noMMsg})
	if err != nil {
		log.Fatalf("ftcd: %v", err)
	}
	defer bridge.Close()
	udpAddr, tcpAddr := bridge.Addrs()
	mbDesc := "extension replica (no middlebox)"
	if spec.MB != nil {
		mbDesc = spec.MB.Name()
	}
	log.Printf("ftcd: ring %d/%d hosting %s", *index, ring.M(), mbDesc)
	burstDesc := fmt.Sprintf("%d", cfg.Burst)
	if cfg.Burst == 0 {
		burstDesc = fmt.Sprintf("adaptive(max %d)", cfg.MaxBurst)
	}
	bs := bridge.Stats()
	// Socket-buffer truth logging: the kernel clamps (and on Linux
	// doubles) setsockopt requests, so report what it actually granted.
	log.Printf("ftcd: data plane %s, control plane %s (burst %s, %d ingress queues, mtu budget %d, %d sockets, rcvbuf %d, sndbuf %d)",
		udpAddr, tcpAddr, burstDesc, local.NumQueues(), *mtuBudget,
		bs.Sockets, bs.EffRcvBuf, bs.EffSndBuf)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	s := replica.Stats()
	log.Printf("ftcd: rx=%d tx=%d egress=%d filtered=%d repairs=%d fenced_cmds=%d",
		s.RxFrames.Load(), s.TxFrames.Load(), s.Egress.Load(),
		s.Filtered.Load(), s.Repairs.Load(), s.FencedCmds.Load())
	// Goodput accounting on this replica's inter-replica hop: application
	// payload vs piggyback overhead vs total bytes sent (see core.Stats).
	app, pb, wireB := s.AppBytesOut.Load(), s.PiggybackBytesOut.Load(), s.WireBytesOut.Load()
	goodput := 0.0
	if wireB > 0 {
		goodput = float64(app) / float64(wireB)
	}
	log.Printf("ftcd: goodput app=%dB piggyback=%dB wire=%dB ratio=%.3f",
		app, pb, wireB, goodput)
	ts := bridge.Stats()
	log.Printf("ftcd: tunnel out=%d frames/%d dgrams in=%d frames/%d dgrams oversize=%d truncated=%d",
		ts.FramesOut, ts.DatagramsOut, ts.FramesIn, ts.DatagramsIn,
		ts.OversizeDrops, ts.TruncatedDatagrams)
	log.Printf("ftcd: tunnel syscalls send=%d recv=%d over %d sockets (rcvbuf %d, sndbuf %d)",
		ts.SendSyscalls, ts.RecvSyscalls, ts.Sockets, ts.EffRcvBuf, ts.EffSndBuf)
	sched := replica.Sched()
	log.Printf("ftcd: sched burst=%d clamps=%d queue depths=%v",
		sched.Burst.Value(), local.Clamps(),
		local.QueueDepths(nil))
}
