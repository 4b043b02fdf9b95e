//go:build race

package serve

// raceEnabled reports a -race build: heap measurements skip it, because the
// detector slows simulation about twelvefold and changes nothing they read.
const raceEnabled = true
