package netsim

import (
	"fmt"
	"testing"
)

func TestBurstControllerFixed(t *testing.T) {
	c := NewBurstController(32, 0)
	if c.Size() != 32 || c.Max() != 32 {
		t.Fatalf("fixed controller: size=%d max=%d, want 32/32", c.Size(), c.Max())
	}
	c.Observe(32, 100)
	c.Observe(0, 0)
	if c.Size() != 32 {
		t.Fatalf("fixed controller moved to %d after Observe", c.Size())
	}
}

// TestBurstControllerAdaptive pins the grow/decay rules of DESIGN.md §9:
// ×2 growth while the budget fills or backlog remains, ÷2 decay on a short
// drain with an empty queue, clamped to [1, max].
func TestBurstControllerAdaptive(t *testing.T) {
	c := NewBurstController(0, 8)
	if !c.adaptive || c.Size() != 1 || c.Max() != 8 {
		t.Fatalf("adaptive controller: size=%d max=%d adaptive=%v", c.Size(), c.Max(), c.adaptive)
	}
	steps := []struct {
		drained, backlog, want int
	}{
		{1, 0, 2}, // budget filled → grow
		{2, 0, 4}, // budget filled → grow
		{1, 3, 8}, // short drain but backlog remains → grow
		{8, 8, 8}, // clamped at max
		{3, 0, 4}, // short drain, empty queue → decay
		{1, 0, 2}, // decay again
		{0, 0, 1}, // empty drain → decay
		{0, 0, 1}, // clamped at 1
		{1, 0, 2}, // budget of 1 filled → grow again
	}
	for i, s := range steps {
		c.Observe(s.drained, s.backlog)
		if c.Size() != s.want {
			t.Fatalf("step %d: Observe(%d, %d) → size %d, want %d",
				i, s.drained, s.backlog, c.Size(), s.want)
		}
	}
}

func TestBurstControllerDefaultMax(t *testing.T) {
	c := NewBurstController(0, 0)
	if c.Max() != DefaultMaxBurst {
		t.Fatalf("default max = %d, want %d", c.Max(), DefaultMaxBurst)
	}
}

// schedNode builds a fabric node with q queues whose selector reads the
// queue index from the frame's first byte.
func schedNode(t *testing.T, q, depth int) (*Fabric, *Node) {
	t.Helper()
	f := New(Config{})
	t.Cleanup(f.Stop)
	n := f.AddNode("sut", NodeConfig{
		Queues:   q,
		QueueCap: depth,
		Selector: func(frame []byte, queues int) int { return int(frame[0]) % queues },
	})
	return f, n
}

// schedFrame encodes (queue, seq) into a frame the schedNode selector and
// the tests can both read back.
func schedFrame(q, seq int) []byte {
	return []byte{byte(q), byte(seq >> 8), byte(seq)}
}

// TestPickQueueClamp pins the out-of-range selector contract: the frame
// lands on queue 0 and the clamp counter records the misconfiguration
// instead of letting it pass silently.
func TestPickQueueClamp(t *testing.T) {
	f := New(Config{})
	t.Cleanup(f.Stop)
	n := f.AddNode("sut", NodeConfig{
		Queues:   4,
		QueueCap: 8,
		Selector: func(frame []byte, queues int) int { return int(int8(frame[0])) },
	})
	for _, b := range []byte{200, 0x80, 2} { // 200 → -56, 0x80 → -128, 2 in range
		if !n.enqueue("gen", []byte{b}, false) {
			t.Fatal("enqueue failed")
		}
	}
	if got := n.Clamps(); got != 2 {
		t.Fatalf("Clamps() = %d, want 2", got)
	}
	if n.QueueLen(0) != 2 || n.QueueLen(2) != 1 {
		t.Fatalf("queue depths 0:%d 2:%d, want 2 and 1", n.QueueLen(0), n.QueueLen(2))
	}
}

// TestQueueDepths covers the observability dump used by ftcd's shutdown
// logging.
func TestQueueDepths(t *testing.T) {
	_, n := schedNode(t, 3, 8)
	n.enqueue("gen", schedFrame(1, 0), false)
	n.enqueue("gen", schedFrame(1, 1), false)
	n.enqueue("gen", schedFrame(2, 0), false)
	d := n.QueueDepths(nil)
	want := []int{0, 2, 1}
	if fmt.Sprint(d) != fmt.Sprint(want) {
		t.Fatalf("QueueDepths = %v, want %v", d, want)
	}
}
