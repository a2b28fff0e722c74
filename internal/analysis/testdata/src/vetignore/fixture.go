// Package vetignore exercises the suppression-with-reason contract: an
// allow marker without an analyzer name or a reason suppresses nothing
// and is itself a finding.
package vetignore

import "context"

func justified() context.Context {
	return context.Background() // vetsuite:allow ctxflow -- fixture: reason present, suppressed
}

func markerAbove() context.Context {
	// vetsuite:allow ctxflow -- fixture: a marker on the line above suppresses too
	return context.Background()
}

func reasonless() context.Context {
	return context.Background() // vetsuite:allow ctxflow
}

func emptyReason() context.Context {
	return context.Background() // vetsuite:allow ctxflow --
}

func nameless() context.Context {
	return context.Background() // vetsuite:allow -- fixture: no analyzer named
}

func retiredSyntax() context.Context {
	return context.Background() //vet:ignore ctxflow fixture: this form suppresses nothing
}
