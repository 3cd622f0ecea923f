package experiments

import "time"

// wallStart anchors wallNanos; time.Now carries the monotonic reading,
// so differences of wallNanos values are drift-free intervals.
var wallStart = time.Now()

// wallNanos is the package's one wall-clock reader, for the fields
// documented as host-CPU measurements: serialization's timed columns
// and E12's sharder_lookup_ns_per_op. Every other number is virtual
// time.
func wallNanos() int64 { return time.Since(wallStart).Nanoseconds() }
