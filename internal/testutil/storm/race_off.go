//go:build !race

package storm

const raceEnabled = false
