//go:build race

package experiments

// raceDetector reports a build with the race detector, which slows the
// generated formatting cases about tenfold.
const raceDetector = true
