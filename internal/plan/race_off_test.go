//go:build !race

package plan_test

// raceEnabled mirrors the -race build tag: under the detector
// sync.Pool drops pooled scratch at random, so allocation counts of
// pooled evaluations are not meaningful.
const raceEnabled = false
