package main

// Example runs the demo end to end. Its output is deterministic (a
// fixed seed) and the same at any GOMAXPROCS, so this doubles as a
// regression test that `go test ./...` executes in CI.
func Example() {
	main()
	// Output:
	// row      coord-rows     cova-err         rows shipped / observed
	// 2500     336            0.0448           597 / 2501 (23.9%)
	// 5000     336            0.0434           1204 / 5001 (24.1%)
	// 7500     336            0.0435           1813 / 7501 (24.2%)
	// 10000    312            0.0447           2495 / 10001 (24.9%)
	// 12500    408            0.0242           3477 / 12501 (27.8%)
	// 15000    432            0.0255           4507 / 15001 (30.0%)
	//
	// top window component explains 78% of energy (post-shift: direction 3 dominates: |v₃|=1.00)
}
