package core

import "time"

// Clock is the time source the invocation path consumes: budget checks read
// Now, and the watchdog arms a budget's expiry through AfterFunc. The
// default is the wall clock; simtest installs a seeded virtual clock so
// deadline behavior becomes deterministic and replayable. The interface is
// deliberately tiny — exactly the two operations the system performs — so
// any scheduler-free fake can satisfy it.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time

	// AfterFunc arranges for f to run once d has elapsed (immediately for
	// d <= 0) and returns a stop function that cancels it, with
	// time.Timer.Stop semantics: stop reports whether it prevented f from
	// running. The system's f only closes a channel, so a clock may run it
	// on any goroutine, including under its own lock.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// realClock is the production Clock: time.Now and time.AfterFunc.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) AfterFunc(d time.Duration, f func()) func() bool {
	return time.AfterFunc(d, f).Stop
}

// SetClock installs an alternative time source (nil restores the wall
// clock). The clock is read lock-free on the invocation hot path, so it
// must be installed before the system serves traffic — in practice right
// after NewSystem, the way simtest harnesses do.
func (s *System) SetClock(c Clock) {
	if c == nil {
		c = realClock{}
	}
	s.clock = c
}

// now is the system's single point of time observation.
func (s *System) now() time.Time { return s.clock.Now() }
