package engine

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrNodeBudget is the sentinel the mining recursions return up the
// stack when Options.MaxNodes is exhausted. It replaces the old
// panic-based long-jump: budget exhaustion is an expected, data-sized
// outcome, so it travels as an error value. Run-level entry points
// translate it into Stats.Aborted and a nil error; only context errors
// (cancellation, deadline) surface to callers.
var ErrNodeBudget = errors.New("engine: node budget exhausted")

// Budget meters enumeration work against a node cap and a context.
// It is safe for concurrent use: the node counter is atomic, so Nodes
// and Remaining may be read while the search charges, and cancelling
// the context stops the search at its next node entry.
//
// Charge polls the context's Done channel, cached at Reset, instead of
// calling ctx.Err() at every node: a cancelable context's Err takes the
// context's mutex, so searches on several goroutines sharing one
// context (the class workers of a train job) would contend for that
// lock at every node. A non-blocking receive on an open channel takes
// no lock, and Err is read only once the channel is closed.
type Budget struct {
	ctx      context.Context
	done     <-chan struct{} // ctx.Done(); nil when ctx can never be cancelled
	maxNodes int64
	nodes    atomic.Int64
}

// NewBudget returns a budget charging against ctx and maxNodes
// (0 = no node cap). A nil ctx means context.Background().
func NewBudget(ctx context.Context, maxNodes int) *Budget {
	b := &Budget{}
	b.Reset(ctx, maxNodes)
	return b
}

// Reset rearms the budget for a new run without allocating: the node
// counter restarts at zero and subsequent Charge calls check the given
// context and cap. Not safe to call while a search is charging.
func (b *Budget) Reset(ctx context.Context, maxNodes int) {
	if ctx == nil {
		ctx = context.Background() //vet:ignore ctxflow defensive default for a nil ctx; callers on the cancellation path always pass one
	}
	b.ctx = ctx
	b.done = ctx.Done()
	b.maxNodes = int64(maxNodes)
	b.nodes.Store(0)
}

// Charge debits n work units. It returns the context's error when the
// run is cancelled or past its deadline, ErrNodeBudget when the node
// cap is exhausted, and nil otherwise. Cancellation wins over the cap,
// so a cancelled run reports ctx.Err() rather than a budget abort.
//
//vet:allocfree
func (b *Budget) Charge(n int) error {
	select {
	case <-b.done:
		return b.ctx.Err()
	default:
	}
	v := b.nodes.Add(int64(n))
	if b.maxNodes > 0 && v > b.maxNodes {
		return ErrNodeBudget
	}
	return nil
}

// Nodes returns the work units charged so far.
//
//vet:allocfree
func (b *Budget) Nodes() int { return int(b.nodes.Load()) }

// Remaining returns the work units left before exhaustion, or -1 when
// the budget has no node cap.
//
//vet:allocfree
func (b *Budget) Remaining() int64 {
	if b.maxNodes <= 0 {
		return -1
	}
	left := b.maxNodes - b.nodes.Load()
	if left < 0 {
		return 0
	}
	return left
}
