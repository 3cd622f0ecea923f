package main

// Example runs the program and pins what it prints: the run is
// deterministic on the simulator, so any API change that rots the
// example fails `go test`.
func Example() {
	main()
	// Output:
	// GET workload: 64 keys, 128B values, 400 reads
	//
	// rpc   mean=  47.0µs p50=  47.0µs p99=  47.0µs
	// refs  mean=  54.2µs p50=  46.9µs p99=  93.0µs
}
