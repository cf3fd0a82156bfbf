package main

// Example runs the demo end to end. Its output is deterministic (a
// fixed seed and LM-FD's bit-exact restore) and the same at any
// GOMAXPROCS, so this doubles as a regression test that
// `go test ./...` executes in CI.
func Example() {
	main()
	// Output:
	// checkpointed 39381 bytes at row 3000 (sketch holds 428 rows)
	// post-restore answer: 10 rows, max divergence from uninterrupted run: 0
	// restored run is bit-identical — checkpointing is exact
}
