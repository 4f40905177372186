//go:build race

package timecurl

// raceEnabled reports that the race detector is on, which changes what
// allocates: allocation ceilings do not apply.
const raceEnabled = true
