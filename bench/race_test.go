//go:build race

package main

// raceScale stretches the smoke window: the race detector slows every call
// several times over, and a window slice still needs 1000 calls for its p99.
const raceScale = 8
