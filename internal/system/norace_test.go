//go:build !race

package system_test

const raceEnabled = false
