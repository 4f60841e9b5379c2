package netsim

// Scheduling layer for queue workers (DESIGN.md §9): each worker owns one
// ingress queue — the RSS selector hashes a flow to exactly one queue, so a
// flow and its state stay on one worker — and sizes its drains with a
// NAPI-style adaptive burst controller.

// DefaultMaxBurst caps the adaptive burst controller's growth: under
// sustained backlog a worker drains up to this many frames per wakeup.
const DefaultMaxBurst = 256

// BurstController sizes a worker's drain budget NAPI-style. With a fixed
// burst (fixed > 0) it always answers that size; in adaptive mode it
// starts at 1 so an idle pipeline keeps per-packet latency, doubles
// toward max while drains fill the budget or leave backlog behind, and
// halves toward 1 when a drain comes up short with nothing left queued.
// A controller belongs to one worker goroutine; it is not thread-safe.
type BurstController struct {
	cur, max int
	adaptive bool
}

// NewBurstController returns a controller answering the fixed burst size
// when fixed > 0, or an adaptive controller growing toward max (default
// DefaultMaxBurst) when fixed is 0.
func NewBurstController(fixed, max int) *BurstController {
	if fixed > 0 {
		return &BurstController{cur: fixed, max: fixed}
	}
	if max <= 0 {
		max = DefaultMaxBurst
	}
	return &BurstController{cur: 1, max: max, adaptive: true}
}

// Size returns the current drain budget in frames (≥ 1).
func (c *BurstController) Size() int { return c.cur }

// Max returns the largest budget the controller will ever answer; size
// receive buffers with it.
func (c *BurstController) Max() int { return c.max }

// Observe feeds back one drain's outcome: drained frames were received
// against the current budget, and backlog frames remained queued
// afterwards. Growth (×2 toward max) triggers when the budget filled or
// backlog remains — the queue is running hot and a bigger burst buys
// amortization; decay (÷2 toward 1) triggers when the drain came up short
// of the budget with the queue empty — load is light and small bursts
// keep latency low.
func (c *BurstController) Observe(drained, backlog int) {
	if !c.adaptive {
		return
	}
	if backlog > 0 || drained >= c.cur {
		if c.cur < c.max {
			c.cur *= 2
			if c.cur > c.max {
				c.cur = c.max
			}
		}
		return
	}
	if c.cur > 1 {
		c.cur /= 2
	}
}

// QueueDepths appends the current depth of every ingress queue to buf
// (reset to length zero first) and returns it — observability for
// shutdown dumps and backlog diagnostics.
func (n *Node) QueueDepths(buf []int) []int {
	buf = buf[:0]
	for _, ch := range n.queues {
		buf = append(buf, len(ch))
	}
	return buf
}
