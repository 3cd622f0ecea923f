package main

// Example runs the program and pins what it prints: the run is
// deterministic on the simulator, so any API change that rots the
// example fails `go test`.
func Example() {
	main()
	// Output:
	// walking a 48-node linked structure on a remote host (250µs of app work per hop)
	//
	// rpc      total=  13993.3µs per-hop= 291.5µs checksum=36056
	// refs     total=  16604.1µs per-hop= 345.9µs checksum=36056
	// refs+pf  total=  12963.5µs per-hop= 270.1µs checksum=36056
}
