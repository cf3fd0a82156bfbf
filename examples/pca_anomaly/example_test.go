package main

// Example runs the demo end to end. Its output is deterministic (a
// fixed seed) and the same at any GOMAXPROCS, so this doubles as a
// regression test that `go test ./...` executes in CI.
func Example() {
	main()
	// Output:
	// row      residual       sketch-rows  status
	// 1200     0.0045         669          normal
	// 1600     0.0057         668          normal
	// 2000     0.0077         633          normal
	// 2400     0.0050         645          normal
	// 2800     0.0057         641          normal
	// 3200     0.0050         616          normal
	// 3600     0.0071         645          normal
	// 4000     0.0063         616          normal
	// 4400     0.0073         617          normal
	// 4800     0.0062         643          normal
	// 5200     0.0593         640          normal
	// 5600     0.1428         636          normal
	// 6000     0.2076         615          CHANGE DETECTED
	// 6400     0.2133         630          CHANGE DETECTED
	// 6800     0.2157         623          CHANGE DETECTED
	// 7200     0.2172         619          CHANGE DETECTED
	// 7600     0.2108         636          CHANGE DETECTED
	//
	// change injected at row 5000; flagged 5 query points after it
}
