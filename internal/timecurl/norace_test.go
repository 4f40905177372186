//go:build !race

package timecurl

const raceEnabled = false
