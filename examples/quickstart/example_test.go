package main

// Example runs the program and pins what it prints: the run is
// deterministic on the simulator, so any API change that rots the
// example fails `go test`.
func Example() {
	main()
	// Output:
	// result:   hello from the global address space / reached through a cross-object pointer
	// executor: station st2 (chosen by the system)
	// elapsed:  144.87µs of simulated time
}
