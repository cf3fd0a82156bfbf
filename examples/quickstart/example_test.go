package main

// Example runs the demo end to end. Its output is deterministic (a
// fixed seed) and the same at any GOMAXPROCS, so this doubles as a
// regression test that `go test ./...` executes in CI.
func Example() {
	main()
	// Output:
	// row      sketch-rows  cova-err     window-rows
	// 1000     1066         0.04286      1000
	// 2000     1112         0.04211      1000
	// 3000     1111         0.04290      1000
	// 4000     1087         0.04213      1000
	// 5000     1045         0.04834      1000
	// 6000     1068         0.04408      1000
	// 7000     1159         0.04684      1000
	//
	// energy along e0: sketch 6849.1 vs exact 8555.0 (window holds the drifted data)
}
