//go:build !race

package allreduce

const raceDetector = false
