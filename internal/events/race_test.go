//go:build race

package events

const raceEnabled = true
