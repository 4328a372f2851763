//go:build race

package eval

// See race_off_test.go.
const raceEnabled = true
