package workload

import (
	"math/rand"

	"repro/internal/netsim"
)

// ArrivalKind selects the arrival process.
type ArrivalKind int

// Arrival processes. Poisson is the zero value: the right default
// for load sweeps, where offered rate must not adapt to the system.
// Both are open loops; a closed loop, whose offered load adapts to
// the system, is Loop or RunToCompletion.
const (
	// ArrivalPoisson issues ops with exponentially distributed gaps at
	// mean RatePerSec.
	ArrivalPoisson ArrivalKind = iota
	// ArrivalOpen issues ops at a fixed RatePerSec regardless of
	// completions.
	ArrivalOpen
)

// String names the arrival process.
func (k ArrivalKind) String() string {
	switch k {
	case ArrivalPoisson:
		return "poisson"
	case ArrivalOpen:
		return "open"
	}
	return "arrival?"
}

// ArrivalConfig tunes the arrival process.
type ArrivalConfig struct {
	Kind ArrivalKind
	// RatePerSec is the offered load (default 1000).
	RatePerSec float64
}

func (a *ArrivalConfig) fill() {
	if a.RatePerSec <= 0 {
		a.RatePerSec = 1000
	}
}

// gap draws the next inter-arrival gap, floored at 1ns so the event
// loop always advances.
func (a ArrivalConfig) gap(rng *rand.Rand) netsim.Duration {
	mean := float64(netsim.Second) / a.RatePerSec
	d := netsim.Duration(mean)
	if a.Kind == ArrivalPoisson {
		d = netsim.Duration(rng.ExpFloat64() * mean)
	}
	if d < 1 {
		d = 1
	}
	return d
}
