package main

// Example runs the program and pins what it prints: the run is
// deterministic on the simulator, so any API change that rots the
// example fails `go test`.
func Example() {
	main()
	// Output:
	// compiled 2 subscriptions into 2 switch rules
	//
	//   alerts-subscriber  got mem on topic 17077059
	//   monitor            got mem on topic aaa51435
	//   monitor            got mem on topic 9d6a489c
	//   alerts-subscriber  got mem on topic 34e30484
	//   monitor            got mem on topic 59ee47c5
	//
	// alerts-subscriber received 2 (want 2: only alert topics)
	// monitor received           3 (want 3: the rest)
	// switch filter hits         5
}
