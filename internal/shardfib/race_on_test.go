//go:build race

package shardfib

const raceEnabled = true
