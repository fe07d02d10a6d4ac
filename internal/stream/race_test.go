//go:build race

package stream_test

// raceDetector reports a -race build, under which the long soak shortens
// its horizon.
const raceDetector = true
