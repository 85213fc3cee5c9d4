package faults

// Real-time adapter: the injector's retry/backoff loop is written against
// an arithmetic virtual clock — it computes when each attempt, spike, and
// backoff *would* finish and moves a local time cursor forward. The Clock
// seam lets the identical code drive a live daemon: a WallClock actually
// sleeps until each computed instant arrives, so the schedule the
// simulator only accounts for is the schedule the daemon really executes.
// The virtual clock's Sleep is a no-op returning true, which keeps the
// simulation path byte-identical to a build without the seam (pinned by
// TestVirtualTimeGolden).

import (
	"sync"
	"time"
)

// Clock is the injector's notion of elapsing time. Sleep blocks until
// virtual instant t (microseconds on the injector's timeline) has arrived
// and reports whether it did: a virtual clock returns true immediately, a
// wall clock waits in real time and returns false if it was stopped first
// (daemon shutdown), letting the retry loop abort to the degradation path
// instead of finishing a schedule nobody is waiting for. Waits reports
// whether Sleep(t) would block at all, which is the injector's cue to
// commit an open image batch first.
type Clock interface {
	Sleep(t int64) bool
	Waits(t int64) bool
}

// virtualClock is the injector's default, the one the simulators use:
// time is purely arithmetic, nothing waits. SetClock(nil) restores it.
type virtualClock struct{}

func (virtualClock) Sleep(int64) bool { return true }
func (virtualClock) Waits(int64) bool { return false }

// WallClock maps the injector's microsecond timeline onto real time,
// anchored at the instant the clock was created. It is safe for one
// sleeper (the injector's owner goroutine) plus any number of Now/Stop
// callers.
type WallClock struct {
	base     time.Time
	mu       sync.Mutex
	stopped  bool
	stopChan chan struct{}
}

// NewWallClock returns a wall clock whose virtual time zero is now.
func NewWallClock() *WallClock {
	return &WallClock{base: time.Now(), stopChan: make(chan struct{})}
}

// Now returns the current virtual time: microseconds elapsed since the
// clock was created.
func (c *WallClock) Now() int64 {
	return int64(time.Since(c.base) / time.Microsecond)
}

// Sleep blocks until virtual instant t arrives, returning true, or until
// the clock is stopped, returning false without waiting out the rest.
func (c *WallClock) Sleep(t int64) bool {
	for {
		d := time.Duration(t-c.Now()) * time.Microsecond
		if d <= 0 {
			c.mu.Lock()
			stopped := c.stopped
			c.mu.Unlock()
			return !stopped
		}
		timer := time.NewTimer(d)
		select {
		case <-c.stopChan:
			timer.Stop()
			return false
		case <-timer.C:
		}
	}
}

// Waits reports whether instant t is still ahead on a running clock.
func (c *WallClock) Waits(t int64) bool {
	return t > c.Now() && !c.Stopped()
}

// Stop aborts the current and all future Sleeps. Idempotent.
func (c *WallClock) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.stopped {
		c.stopped = true
		close(c.stopChan)
	}
}

// Stopped reports whether Stop has been called.
func (c *WallClock) Stopped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopped
}
