//go:build race

package dist

// raceEnabled reports that the race detector instruments this build; its
// shadow bookkeeping inflates allocation counts.
const raceEnabled = true
