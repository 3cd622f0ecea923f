package main

// Example runs the program and pins what it prints: the run is
// deterministic on the simulator, so any API change that rots the
// example fails `go test`.
func Example() {
	main()
	// Output:
	// walking a 48-node linked structure on a remote host (250µs of app work per hop)
	//
	// rpc      total=  13986.0µs per-hop= 291.4µs checksum=36056
	// refs     total=  16588.6µs per-hop= 345.6µs checksum=36056
	// refs+pf  total=  12959.6µs per-hop= 270.0µs checksum=36056
}
