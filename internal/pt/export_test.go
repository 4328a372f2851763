package pt

// RaceEnabled exposes raceEnabled to the external pt_test package.
const RaceEnabled = raceEnabled
