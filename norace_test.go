//go:build !race

package nvramfs_test

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = false
