package p4sim

import "repro/internal/wire"

// ParseScratch is the header sw parses a frame into when the frame's
// buffer carries none: a pass that routes on any other header skipped
// the parse.
func ParseScratch(sw *Switch) *wire.Header { return &sw.rxHdr }
