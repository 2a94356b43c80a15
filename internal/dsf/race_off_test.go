//go:build !race

package dsf

const raceEnabled = false
