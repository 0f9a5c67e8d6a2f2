//go:build !race

package habf

const raceEnabled = false
