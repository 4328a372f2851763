//go:build race

package storm

const raceEnabled = true
