//go:build race

package main

// raceEnabled skips the golden run, which takes minutes under the race
// detector.
const raceEnabled = true
