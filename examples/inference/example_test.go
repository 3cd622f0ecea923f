package main

// Example runs the program and pins what it prints: the run is
// deterministic on the simulator, so any API change that rots the
// example fails `go test`.
func Example() {
	main()
	// Output:
	// model: 4000 buckets x 32 dims, 4 shards on Bob (root 28aabbd0)
	// Alice's request: executor=st3 elapsed=537.85µs score=-1.3968 (expected -1.3968)
	//                  cost model ranked: st3=1.1ms st4=8.3ms st1=10.0ms st2=20.0ms
	// Dave's request:  executor=st4 elapsed=46.99µs score=-1.3968 (expected -1.3968)
	//                  cost model ranked: st4=0.8ms st3=1.1ms st1=10.0ms st2=20.0ms
}
