package main

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// checker accounts for every operation the benchmark attempts and every
// one that failed: an error, a false negative on a probe stream, or an
// acked Add that later answers false. Any failure makes the run incorrect
// and its exit code non-zero. Safe for concurrent use.
type checker struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu    sync.Mutex
	first error
}

func (c *checker) attempt(n int) { c.attempted.Add(int64(n)) }

// fail records one failed operation; the first cause is kept for the report.
func (c *checker) fail(err error) {
	c.failed.Add(1)
	c.mu.Lock()
	if c.first == nil {
		c.first = err
	}
	c.mu.Unlock()
}

// probes checks answers to a slice of a probe stream that starts at stream
// position base: odd positions hold members, which must answer true.
func (c *checker) probes(what string, base int, answers []bool) {
	for i, ok := range answers {
		if !ok && (base+i)%2 == 1 {
			c.fail(fmt.Errorf("%s: false negative at stream position %d", what, base+i))
		}
	}
}

// batcher is the query capability acked-key checks need: *habf.Sharded, or
// a fake in tests.
type batcher interface {
	ContainsBatchInto(dst []bool, keys [][]byte)
}

// acked checks that every key in keys, each a member or an acked Add,
// answers true. Each key counts as one attempted operation.
func (c *checker) acked(what string, f batcher, keys [][]byte) {
	c.attempt(len(keys))
	for i, ok := range answer(f, keys) {
		if !ok {
			c.fail(fmt.Errorf("%s: acked key %d answers false", what, i))
		}
	}
}

// answer queries keys in chunks, so the filter's pooled batch scratch stays
// small.
func answer(f batcher, keys [][]byte) []bool {
	const chunk = 1 << 14
	out := make([]bool, len(keys))
	for lo := 0; lo < len(keys); lo += chunk {
		hi := min(lo+chunk, len(keys))
		f.ContainsBatchInto(out[lo:hi], keys[lo:hi])
	}
	return out
}

// err returns the first failure, or nil if every operation succeeded.
func (c *checker) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.first
}

// exitCode is the process exit status for a run with this checker.
func (c *checker) exitCode() int {
	if c.err() != nil {
		return 1
	}
	return 0
}
