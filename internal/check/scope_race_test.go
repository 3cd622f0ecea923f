//go:build race

package check

func init() { scopeRace = true }
