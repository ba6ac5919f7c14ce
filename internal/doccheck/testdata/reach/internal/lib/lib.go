// Package lib is the reach-scan fixture: Used is called by cmd/app,
// Orphan by nothing but a test, and Name.String satisfies fmt.Stringer.
package lib

// Used is called by cmd/app.
func Used() int { return helper() }

// Orphan is referenced only by lib_test.go, so the scan reports it.
func Orphan() int { return helper() + 1 }

func helper() int { return 1 }

// Name is a string with a Stringer method.
type Name string

// String is exempt: it is reached through fmt.Stringer.
func (n Name) String() string { return string(n) }
