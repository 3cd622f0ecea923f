package p4sim

import (
	"repro/internal/netsim"
	"repro/internal/wire"
)

// ParseScratch is the header sw parses a frame into when the frame's
// buffer carries none: a pass that routes on any other header skipped
// the parse.
func ParseScratch(sw *Switch) *wire.Header { return &sw.rxHdr }

// SetProbe shows fn every frame sw parses, before the forwarding
// decision, with the header sw routes it on (nil removes it).
func SetProbe(sw *Switch, fn func(h *wire.Header, fr netsim.Frame)) { sw.probe = fn }
