package main

// Example runs the program and pins what it prints: the run is
// deterministic on the simulator, so any API change that rots the
// example fails `go test`.
func Example() {
	main()
	// Output:
	// GET workload: 64 keys, 128B values, 400 reads
	//
	// rpc   mean=  46.9µs p50=  46.9µs p99=  46.9µs
	// refs  mean=  54.0µs p50=  46.7µs p99=  92.0µs
}
