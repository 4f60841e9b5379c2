package main

import (
	"testing"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/mbox"
	"github.com/ftsfc/ftc/internal/netsim"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// headUpdates builds ring position 0 of a monitor,firewall chain from spec
// and returns the updates its head emits for the second of two packets
// (the first write of a counter has no old value to take a delta from).
func headUpdates(t *testing.T, spec core.ReplicaSpec, numMB int) []state.Update {
	t.Helper()
	fabric := netsim.New(netsim.Config{})
	t.Cleanup(fabric.Stop)
	cfg := core.Config{F: 1, NumMB: numMB, Workers: 2}.WithDefaults()
	spec.Sim = fabric.AddNode(ringID(0), netsim.NodeConfig{})
	spec.Fabric = fabric
	spec.RingIDs = []netsim.NodeID{ringID(0), ringID(1)}
	r := core.NewReplica(cfg, spec)
	var l core.Log
	for i := 0; i < 2; i++ {
		p, err := wire.BuildUDP(wire.UDPSpec{
			Src: wire.Addr4(10, 0, 0, 1), Dst: wire.Addr4(192, 0, 2, 1),
			SrcPort: 1000, DstPort: 80, Headroom: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err = r.Head().Transaction(func(tx state.Txn) error {
			_, err := spec.MB.Process(p, tx)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(l.Updates) == 0 {
		t.Fatal("monitor head emitted no updates")
	}
	return l.Updates
}

// TestMonitorHeadEmitsDeltas checks that a Monitor replica built the way
// ftcd builds it ships its packet counters as deltas, like the same
// replica inside core.Chain, and that without the chain's prefixes it
// would ship full values.
func TestMonitorHeadEmitsDeltas(t *testing.T) {
	spec, numMB, err := replicaSpec("monitor,firewall", "", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range headUpdates(t, spec, numMB) {
		if u.Flags&state.UpdateDelta == 0 {
			t.Fatalf("update %q shipped as a full value, want a delta", u.Key)
		}
	}

	spec.DeltaPrefixes = nil
	for _, u := range headUpdates(t, spec, numMB) {
		if u.Flags&state.UpdateDelta != 0 {
			t.Fatalf("update %q is a delta without delta prefixes", u.Key)
		}
	}
}

// TestReplicaSpecPrefixes checks that replicaSpec resolves every chain
// middlebox's prefixes, not just the hosted one's: a follower of the NAT
// must arm the NAT's flow TTLs.
func TestReplicaSpecPrefixes(t *testing.T) {
	spec, numMB, err := replicaSpec("monitor,nat", "", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := spec.MB.(*mbox.Monitor); !ok || numMB != 2 {
		t.Fatalf("spec hosts %T of %d middleboxes, want a Monitor of 2", spec.MB, numMB)
	}
	if got := spec.TTLPrefixes(1); len(got) == 0 {
		t.Fatal("no TTL prefixes for the NAT at position 1")
	}
	if got := spec.DeltaPrefixes(0); len(got) == 0 {
		t.Fatal("no delta prefixes for the hosted Monitor")
	}
	if _, _, err := replicaSpec("monitor,bogus", "", 0, 2); err == nil {
		t.Fatal("unknown middlebox in -chain accepted")
	}
	// -mb may restate chain[index] but not replace it: the other replicas
	// derive this position's prefixes from -chain.
	if _, _, err := replicaSpec("monitor,nat", "monitor", 0, 2); err != nil {
		t.Fatalf("-mb naming chain[index]: %v", err)
	}
	if _, _, err := replicaSpec("monitor,nat", "nat", 0, 2); err == nil {
		t.Fatal("-mb differing from chain[index] accepted")
	}
	// An extension replica past the chain's end hosts no middlebox.
	ext, _, err := replicaSpec("monitor,nat", "none", 2, 2)
	if err != nil || ext.MB != nil || len(ext.TTLPrefixes(1)) == 0 {
		t.Fatalf("extension replica: mb %v, err %v", ext.MB, err)
	}
}
