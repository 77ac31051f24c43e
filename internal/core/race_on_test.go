//go:build race

package core

// raceBuild reports a -race build. Under the race detector sync.Pool drops
// a random share of what it is handed, so a bound that relies on the
// engine's pooled scratch does not hold there.
const raceBuild = true
