// Package ctxflow exercises the context-flow analyzer: roots stay in
// main, ctx comes first, and a declared ctx must be forwarded.
package ctxflow

import (
	"context"
	"time"
)

func mintBackground() error {
	ctx := context.Background() // want `context.Background.. mints a root context in a non-main package`
	return work(ctx, 1)
}

func mintTODO() error {
	return work(context.TODO(), 2) // want `context.TODO.. mints a root context in a non-main package`
}

func ctxSecond(n int, ctx context.Context) error { // want `context.Context is parameter 2 of ctxSecond`
	return work(ctx, n)
}

func ctxUnused(ctx context.Context, n int) int { // want `ctx parameter of ctxUnused is never used`
	return n + 1
}

// work is the well-behaved shape: ctx first, actually consumed.
func work(ctx context.Context, n int) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(time.Duration(n)):
		return nil
	}
}

// ctxBlank discards cancellation explicitly, which the contract allows.
func ctxBlank(_ context.Context, n int) int { return n }

func deliberateRoot() error {
	return work(context.Background(), 3) // vetsuite:allow ctxflow -- fixture: documented context-free convenience wrapper
}
