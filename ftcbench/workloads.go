package main

import (
	"time"

	"github.com/ftsfc/ftc"
	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/exp"
)

// workload is one traffic mix against one deployment. Every deployment knob
// not named here stays at the library default.
type workload struct {
	name string
	why  string

	chain   func() []core.Middlebox
	bridge  bool          // chain replicas joined by trans.Bridge instead of one fabric
	flowTTL time.Duration // core.Config.FlowTTL
	flows   int           // flow ring size; packets cycle it in a seed-derived order
	warm    int           // warm-up packets per deployment

	rate     float64 // open-loop Poisson rate in packets/s; 0 means closed loop
	inflight int     // closed loop: packets in flight
	failover bool    // crash and recover each middlebox in turn during the window
}

// natChain is Monitor (sharing level 2) → MazuNAT with the largest port
// pool a 16-bit port space allows.
func natChain() []core.Middlebox {
	return []core.Middlebox{
		ftc.NewMonitor(2, workers),
		ftc.NewMazuNAT(ftc.Addr4(203, 0, 113, 1), 1024, 64511, ftc.Addr4(10, 0, 0, 0), 8),
	}
}

// tunnelChain is cmd/ftcd's Monitor → SimpleNAT.
func tunnelChain() []core.Middlebox {
	return []core.Middlebox{
		ftc.NewMonitor(1, workers),
		ftc.NewSimpleNAT(ftc.Addr4(203, 0, 113, 1), 10000, 40000),
	}
}

var workloads = []*workload{
	{
		name:  "fabric-saturate",
		why:   "per-packet cost sets the rate: fast path, shared-counter locking, piggyback and follower apply on the in-process fabric",
		chain: natChain, flows: 1024, warm: 1024, inflight: 512,
	},
	{
		name:  "fabric-newflows",
		why:   "every packet opens a NAT binding and old ones expire: flow setup on the shared port allocator, TTL expiry and commit release set the rate",
		chain: natChain, flowTTL: time.Second, flows: 1 << 17, warm: 1024, inflight: 64,
	},
	{
		name:  "bridge-saturate",
		why:   "replicas joined by the UDP tunnel: packing, sendmmsg/recvmmsg and socket fan-out do work that no fabric workload does",
		chain: tunnelChain, bridge: true, flows: 1024, warm: 1024, inflight: 1024,
	},
	{
		name:  "fabric-failover",
		why:   "each middlebox of Ch-Rec is crashed and recovered in turn: the only workload that runs the orchestrator and state snapshot/restore",
		chain: func() []core.Middlebox { return exp.RecChain()(workers) }, flows: 4096, warm: 4096, rate: 5000, failover: true,
	},
}

// diagnostics are workloads kept runnable but left out of BENCHMARK.json
// because their figures are not steady enough to gate on (README.md).
var diagnostics = []*workload{
	{
		name:  "fabric-newflows-open",
		why:   "fabric-newflows offered open loop at 10k new flows/s, above what the chain sustains on two cores",
		chain: natChain, flowTTL: time.Second, flows: 1 << 17, warm: 1024, rate: 10000,
	},
}

func findWorkload(name string) *workload {
	for _, w := range append(append([]*workload(nil), workloads...), diagnostics...) {
		if w.name == name {
			return w
		}
	}
	return nil
}

// hasDeltas reports whether a middlebox of the chain opts into delta
// encoding.
func (w *workload) hasDeltas() bool {
	for _, mb := range w.chain() {
		if d, ok := mb.(core.DeltaPrefixer); ok && len(d.DeltaPrefixes()) > 0 {
			return true
		}
	}
	return false
}

func (w *workload) deploy(clk clock, rec *records, tr *tracer) (*deployment, error) {
	if w.bridge {
		return deployBridge(w, clk, rec, tr)
	}
	return deployFabric(w, clk, rec, tr)
}
