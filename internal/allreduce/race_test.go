//go:build race

package allreduce

// raceDetector reports a build with the race detector, whose shadow
// memory multiplies a test's footprint.
const raceDetector = true
