//go:build !race

package main

const raceScale = 1
