//go:build !race

package swdnn

const raceEnabled = false
