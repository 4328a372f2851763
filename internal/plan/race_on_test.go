//go:build race

package plan_test

// See race_off_test.go.
const raceEnabled = true
