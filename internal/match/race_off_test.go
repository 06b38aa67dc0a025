//go:build !race

package match

const raceDetectorOn = false
