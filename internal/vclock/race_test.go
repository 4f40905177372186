//go:build race

package vclock

// raceEnabled reports that the race detector is on; allocation ceilings
// are not held there.
const raceEnabled = true
