//go:build race

package basket

// raceEnabled reports a -race build: sync.Pool then drops Puts at random,
// so allocation guards over pooled paths cannot hold.
const raceEnabled = true
