//go:build race

package match

// The race detector instruments allocations, so alloc-count guards are
// meaningless under -race.
const raceDetectorOn = true
