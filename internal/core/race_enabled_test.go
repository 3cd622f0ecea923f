//go:build race

package core

// raceEnabled lets tests skip testing.AllocsPerRun assertions under the
// race detector, whose instrumentation allocates on paths that are
// alloc-free in a normal build.
const raceEnabled = true
