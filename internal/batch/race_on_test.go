//go:build race

package batch

// raceEnabled reports whether the race detector is built in. Under it
// sync.Pool.Put drops one item in four at random, so pooled scratch is
// rebuilt now and then and a bytes-per-row bound over pooled code does not
// hold.
const raceEnabled = true
