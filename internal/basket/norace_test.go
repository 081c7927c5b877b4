//go:build !race

package basket

const raceEnabled = false
