// Package helper stands for a test-support package: the gate is told
// to exempt it, so its unreached Spare is not reported.
package helper

// Double is reached through lib.Used.
func Double(x int) int { return 2 * x }

// Spare is unreached but exempt.
func Spare() {}
