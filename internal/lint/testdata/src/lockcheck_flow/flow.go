// Package lockcheckflow is a lint fixture: guarded accesses in each
// statement form the lockset walk threads a lockset through — a branch
// join, a select clause, a range key, a go statement and a labeled loop —
// once with the mutex held (clean) and once without (a finding).
package lockcheckflow

import "sync"

// Counter guards count with mu.
type Counter struct {
	mu sync.Mutex
	//dhllint:guardedby mu
	count int
}

// Join locks in one branch only: the lock is not held after the join.
func (c *Counter) Join(b bool) {
	if b {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.count++
	}
	c.count++
}

// SelectLocked writes in a select clause under the lock: clean.
func (c *Counter) SelectLocked(ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case c.count = <-ch:
	case v := <-ch:
		c.count = v
	default:
	}
}

// Select writes in a select clause without it.
func (c *Counter) Select(ch chan int) {
	select {
	case c.count = <-ch:
	default:
	}
}

// RangeLocked writes the guarded field as a range key under the lock:
// clean.
func (c *Counter) RangeLocked(xs []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.count = range xs {
	}
}

// Range writes it as a range key without the lock.
func (c *Counter) Range(xs []int) {
	for c.count = range xs {
	}
}

// bump requires its caller to hold mu.
func (c *Counter) bump() {
	c.count++
}

// Spawn holds the lock, but the go statement's callee runs without it:
// the requirement is not discharged at the go statement.
func (c *Counter) Spawn(done func(int)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	go c.bump()
	go done(c.count)
}

// LoopLocked touches the field in a labeled loop under the lock: clean.
func (c *Counter) LoopLocked(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
outer:
	for i := 0; i < n; i++ {
		c.count++
		if c.count > n {
			break outer
		}
	}
}

// Loop does so without it.
func (c *Counter) Loop(n int) {
outer:
	for i := 0; i < n; i++ {
		c.count++
		if c.count > n {
			break outer
		}
	}
}
