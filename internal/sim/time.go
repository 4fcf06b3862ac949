// Package sim provides the discrete-event simulation kernel used by every
// other subsystem: a virtual clock, an event queue, and deterministic
// random-number streams.
//
// The kernel is intentionally single-threaded per Engine; parallelism in the
// study harness comes from running many independent Engines concurrently
// (one per scenario×protocol×seed), which is both faster and deterministic.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured in integer nanoseconds since the
// start of the simulation. Integer ticks (rather than float64 seconds) keep
// event ordering exact and runs bit-reproducible across platforms; nanosecond
// resolution preserves sub-microsecond radio propagation delays.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Never is a sentinel Time beyond any simulation horizon.
const Never Time = 1<<63 - 1

// Seconds constructs a Duration from (possibly fractional) seconds.
func Seconds(s float64) Duration { return Duration(s * 1e9) }

// At constructs a Time from (possibly fractional) seconds.
func At(s float64) Time { return Time(s * 1e9) }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// String renders the time as seconds with microsecond precision.
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return fmt.Sprintf("%.6fs", t.Seconds())
}

// Seconds converts d to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Std converts d to a standard-library time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// String renders the duration compactly.
func (d Duration) String() string { return d.Std().String() }
