package mbox

import (
	"errors"
	"testing"
	"time"

	"github.com/ftsfc/ftc/internal/core"
	"github.com/ftsfc/ftc/internal/state"
	"github.com/ftsfc/ftc/internal/wire"
)

// natClock is a manual expiry clock for the port-reuse tests.
type natClock struct{ now int64 }

func (c *natClock) read() int64 { return c.now }

// ttlNAT returns a store aging MazuNAT's keys with a one-second TTL on a
// manual clock, plus a 100-port MazuNAT.
func ttlNAT() (*state.Store, *natClock, *MazuNAT) {
	clk := &natClock{now: int64(time.Hour)}
	s := state.New(64)
	nat := NewMazuNAT(wire.Addr4(203, 0, 113, 9), 20000, 100, wire.Addr4(10, 0, 0, 0), 8)
	s.ConfigureExpiry(state.Expiry{TTL: time.Second, Prefixes: nat.FlowTTLPrefixes(), Clock: clk.read})
	return s, clk, nat
}

// expireDue deletes every key whose TTL elapsed, the way a chain head's
// expiry driver does.
func expireDue(t *testing.T, s *state.Store, now int64) int {
	t.Helper()
	n := 0
	for _, k := range s.CollectExpired(now, -1, nil) {
		key := k
		if _, err := s.Exec(func(tx state.Txn) error {
			ok, err := tx.(state.ExpiryTxn).DeleteExpired(key, now)
			if ok {
				n++
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// natOut sends one outbound packet of flow (i, dport) and returns its
// external port, or the Process error.
func natOut(t *testing.T, nat *MazuNAT, s *state.Store, i int, dport uint16) (uint16, error) {
	t.Helper()
	p := udpPacket(t, wire.Addr4(10, 0, byte(i>>8), byte(i)), wire.Addr4(1, 2, 3, 4), 4000, dport)
	_, err := s.Exec(func(tx state.Txn) error {
		_, perr := nat.Process(p, tx)
		return perr
	})
	return p.UDP.SrcPort, err
}

// TestMazuNATReusesExpiredPorts churns a 100-port NAT through ten times its
// port count: with bindings aging out, flow setup must reuse their ports
// instead of running the allocator dry.
func TestMazuNATReusesExpiredPorts(t *testing.T) {
	s, clk, nat := ttlNAT()
	const rounds, perRound = 20, 60
	for r := 0; r < rounds; r++ {
		seen := map[uint16]int{}
		for i := 0; i < perRound; i++ {
			port, err := natOut(t, nat, s, r*perRound+i, 80)
			if err != nil {
				t.Fatalf("round %d flow %d: %v", r, i, err)
			}
			if port < 20000 || port >= 20100 {
				t.Fatalf("port %d outside the NAT's range", port)
			}
			if j, dup := seen[port]; dup {
				t.Fatalf("round %d: flows %d and %d share port %d", r, j, i, port)
			}
			seen[port] = i
		}
		clk.now += int64(2 * time.Second)
		if n := expireDue(t, s, clk.now); n != perRound {
			t.Fatalf("round %d expired %d flows, want %d", r, n, perRound)
		}
	}
}

// TestMazuNATLiveFlowsNeverSharePorts fills every port with a live flow:
// all bindings are distinct, and one more flow is refused rather than
// handed a port in use.
func TestMazuNATLiveFlowsNeverSharePorts(t *testing.T) {
	s, _, nat := ttlNAT()
	seen := map[uint16]bool{}
	for i := 0; i < 100; i++ {
		port, err := natOut(t, nat, s, i, 80)
		if err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
		if seen[port] {
			t.Fatalf("flow %d got port %d, already in use", i, port)
		}
		seen[port] = true
	}
	if _, err := natOut(t, nat, s, 100, 80); !errors.Is(err, ErrPortsExhausted) {
		t.Fatalf("101st flow on a full 100-port NAT: err = %v, want ErrPortsExhausted", err)
	}
}

// TestMazuNATActiveFlowKeepsBinding keeps one flow sending every half TTL
// for ten TTLs while other flows churn through the remaining ports: the
// active flow's port never changes and is never handed to another flow.
func TestMazuNATActiveFlowKeepsBinding(t *testing.T) {
	s, clk, nat := ttlNAT()
	const active = 5000
	mine, err := natOut(t, nat, s, active, 443)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 20; step++ {
		for i := 0; i < 45; i++ { // two steps' worth stay live: 90 flows
			port, err := natOut(t, nat, s, step*45+i, 80)
			if err != nil {
				t.Fatalf("step %d flow %d: %v", step, i, err)
			}
			if port == mine {
				t.Fatalf("step %d: flow %d was handed the active flow's port %d", step, i, port)
			}
		}
		clk.now += int64(500 * time.Millisecond)
		if got, err := natOut(t, nat, s, active, 443); err != nil || got != mine {
			t.Fatalf("step %d: active flow moved from port %d to %d (err %v)", step, mine, got, err)
		}
		expireDue(t, s, clk.now)
	}
}

// TestMazuNATInboundAfterPortReuse checks reverse translation across port
// reuse: once a flow's binding expires and a new flow takes its port,
// inbound traffic to that port reaches the new flow's source.
func TestMazuNATInboundAfterPortReuse(t *testing.T) {
	s, clk, nat := ttlNAT()
	ports := map[uint16]int{}
	for i := 0; i < 100; i++ {
		port, err := natOut(t, nat, s, i, 80)
		if err != nil {
			t.Fatal(err)
		}
		ports[port] = i
	}
	clk.now += int64(2 * time.Second)
	expireDue(t, s, clk.now)
	port, err := natOut(t, nat, s, 777, 80)
	if err != nil {
		t.Fatal(err)
	}
	if _, reused := ports[port]; !reused {
		t.Fatalf("new flow got port %d, not one of the expired flows' ports", port)
	}
	in := udpPacket(t, wire.Addr4(1, 2, 3, 4), wire.Addr4(203, 0, 113, 9), 80, port)
	if v := process(t, nat, s, in); v != core.Forward {
		t.Fatalf("inbound to reused port %d dropped", port)
	}
	if in.IP.Dst != wire.Addr4(10, 0, 3, 9) || in.UDP.DstPort != 4000 {
		t.Fatalf("inbound to port %d translated to %v:%d, want the new flow 10.0.3.9:4000",
			port, in.IP.Dst, in.UDP.DstPort)
	}
}
