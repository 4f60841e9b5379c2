package fleet

import (
	"fmt"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/mbox"
	"github.com/ftsfc/ftc/internal/wire"
)

// BuildMiddleboxes instantiates a chain's middleboxes from their scenario
// names. The catalog mirrors the paper's Table 1 set plus the auditable
// FlowCounter:
//
//   - "monitor"     — per-packet counter (Monitor, sharing level 1)
//   - "firewall"    — stateless rule filter (default allow)
//   - "nat"         — SimpleNAT; per-flow bindings age under FlowTTL
//   - "mazunat"     — MazuNAT; flow entries (port bindings) age under FlowTTL
//   - "gen"         — write-heavy Gen (16 shared keys)
//   - "genflows"    — Gen with per-flow keys; ages under FlowTTL
//   - "flowcounter" — per-flow audit counter; ages under FlowTTL
//
// chainIdx disambiguates NAT external addresses across concurrent chains;
// position seeds distinct FlowCounter prefixes along one chain.
func BuildMiddleboxes(names []string, chainIdx int) ([]core.Middlebox, error) {
	mbs := make([]core.Middlebox, len(names))
	for pos, name := range names {
		switch name {
		case "monitor":
			mbs[pos] = mbox.NewMonitor(1, 1)
		case "firewall":
			mbs[pos] = mbox.NewFirewall(nil, true)
		case "nat":
			mbs[pos] = mbox.NewSimpleNAT(wire.Addr4(203, 0, 113, byte(10+chainIdx%200)), 20000, 20000)
		case "mazunat":
			mbs[pos] = mbox.NewMazuNAT(wire.Addr4(203, 0, 113, byte(10+chainIdx%200)), 10000, 40000,
				wire.Addr4(10, 0, 0, 0), 8)
		case "gen":
			mbs[pos] = mbox.NewGen(64, 16)
		case "genflows":
			mbs[pos] = mbox.NewGenFlows(64)
		case "flowcounter":
			mbs[pos] = mbox.NewFlowCounter(fmt.Sprintf("fc%d-", pos))
		default:
			return nil, fmt.Errorf("fleet: unknown middlebox type %q", name)
		}
	}
	return mbs, nil
}
