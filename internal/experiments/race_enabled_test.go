//go:build race

package experiments

// raceEnabled lets the two sweep tests stop their ladders early under
// the race detector, where the rungs past the knee cost tens of
// seconds and assert nothing more.
const raceEnabled = true
