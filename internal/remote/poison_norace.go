//go:build !race

package remote

// poisonFrame is the race-build use-after-recycle tripwire; see
// poison_race.go.
func poisonFrame([]byte) {}
