//go:build race

package xmlac

// raceEnabled reports a -race build: the race detector's sync.Pool drops
// pooled objects at random, so allocation bounds do not hold under it.
const raceEnabled = true
