//go:build !race

package parlog

const raceEnabled = false
