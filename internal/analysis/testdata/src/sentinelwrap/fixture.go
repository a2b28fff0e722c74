// Package sentinelwrap exercises the error-wrapping analyzer: %w on
// error operands, errors.Is for sentinel matches.
package sentinelwrap

import (
	"errors"
	"fmt"
)

// ErrBudget and ErrClosed are this package's sentinel errors.
var (
	ErrBudget = errors.New("budget exhausted")
	ErrClosed = errors.New("closed")
)

func flattens(err error) error {
	return fmt.Errorf("mining: %v", err) // want `error err is formatted with %v`
}

func flattensString(err error) error {
	return fmt.Errorf("mining: %s", err) // want `error err is formatted with %s`
}

func flattensIndexed(err error) error {
	return fmt.Errorf("row %d: %[2]v", 7, err) // want `error err is formatted with %v`
}

func wraps(err error) error {
	return fmt.Errorf("mining: %w", err) // ok
}

func wrapsAfterWidth(n int, err error) error {
	return fmt.Errorf("row %*d: %w", 4, n, err) // ok: '*' consumes an operand
}

func nonErrorOperands(n int, name string) error {
	return fmt.Errorf("row %d of %s out of range", n, name) // ok
}

func identityCompare(err error) bool {
	return err == ErrBudget // want `ErrBudget is compared with ==`
}

func identityNotEqual(err error) bool {
	return err != ErrClosed // want `ErrClosed is compared with !=`
}

func nilCompare(err error) bool {
	return err == nil // ok: nil checks need no unwrapping
}

func isCompare(err error) bool {
	return errors.Is(err, ErrBudget) // ok: the sanctioned match
}

func switches(err error) string {
	switch err {
	case ErrBudget: // want `switch case compares the error against ErrBudget by identity`
		return "budget"
	default:
		return "other"
	}
}

func allowed(err error) bool {
	return err == ErrBudget // vetsuite:allow sentinelwrap -- fixture: suppression must work
}
