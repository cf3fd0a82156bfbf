package main

// Example runs the demo end to end. Its output is deterministic (fixed
// dataset seeds) and the same at any GOMAXPROCS, so this doubles as a
// regression test that `go test ./...` executes in CI.
func Example() {
	main()
	// Output:
	// row      candidates   cova-err     window-mass    dominant sensors (col:energy share)
	// 3000     104          0.1127       805324          s29:11% s21:5% s4:4%
	// 4500     91           0.1708       724709          s27:8% s3:5% s19:5%
	// 6000     90           0.1668       812549          s27:10% s23:8% s19:5%
	// 7500     110          0.1365       1548944         s34:9% s0:5% s17:5%
	// 9000     147          0.1184       1065491         s34:8% s0:4% s26:4%
	// 10500    95           0.1459       425481          s29:9% s25:5% s1:4%
}
