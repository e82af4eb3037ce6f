//go:build race

package codec

// The race detector makes sync.Pool drop a share of its items at random, so
// a pooled scratch is sometimes rebuilt and absolute allocation counts move.
func init() { raceEnabled = true }
