//go:build !race

package eval

// raceEnabled mirrors the -race build tag: the detector instruments
// synchronization and skews allocation counts.
const raceEnabled = false
