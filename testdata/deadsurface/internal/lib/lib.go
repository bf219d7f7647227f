// Package lib holds one declaration for each rule of the dead-surface
// gate; the comment on each says whether the gate keeps or flags it.
package lib

import "fixture/internal/helper"

// Shape is a module interface: the program calls Area through it.
type Shape interface{ Area() float64 }

// Square is reached from the program.
type Square struct{ Side float64 }

// Area is kept: Square implements Shape, which has Area.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is flagged: no interface has it and nothing calls it.
func (s Square) Perimeter() float64 { return 4 * s.Side }

// ErrCode is reached from the program, which matches it with errors.Is.
type ErrCode struct{ Code int }

// Error is kept: ErrCode implements error.
func (e ErrCode) Error() string { return "code" }

// Is is kept: errors.Is calls it on an error.
func (e ErrCode) Is(target error) bool {
	t, ok := target.(ErrCode)
	return ok && t.Code == e.Code
}

// Used is reached from the program.
func Used() int { return helper.Double(1) }

// Unused is flagged: an exported function with no caller.
func Unused() {}

// onlyTested is flagged: only lib_test.go calls it.
func onlyTested() int { return 1 }

// deadCaller is flagged: nothing calls it.
func deadCaller() { onlyFromDead() }

// onlyFromDead is flagged: its one caller is dead.
func onlyFromDead() {}

// Hook is kept by the allowlist, and so is the helper it calls.
func Hook() { hookHelper() }

func hookHelper() {}
