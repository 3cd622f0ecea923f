//go:build !race

package future

const raceEnabled = false
