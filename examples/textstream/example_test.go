package main

// Example runs the demo end to end. Its output is deterministic (fixed
// dataset seeds) and the same at any GOMAXPROCS, so this doubles as a
// regression test that `go test ./...` executes in CI.
func Example() {
	main()
	// Output:
	// time       docs     sketch-rows  top terms of leading window topics
	// 501        56       56            topic1:[155 26 261 195]  topic2:[152 217 281 131]
	// 1002       447      998           topic1:[155 152 195 26]  topic2:[152 155 272 217]
	// 1502       1506     1442          topic1:[155 152 217 195]  topic2:[152 155 272 217]
	// 2002       3567     1760          topic1:[155 152 217 195]  topic2:[152 155 272 217]
	// 2502       6963     1826          topic1:[155 195 152 26]  topic2:[152 155 217 272]
}
