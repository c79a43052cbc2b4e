//go:build race

package webfail

func init() { raceEnabled = true }
