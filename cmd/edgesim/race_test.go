//go:build race

package main

// raceEnabled reports that the race detector is on: its runtime
// randomises goroutine order, so the golden transcript does not apply.
const raceEnabled = true
