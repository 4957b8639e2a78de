// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate for every timing model in this repository:
// CPU cores, the PCIe interconnect, DRAM, and the FPGA-based
// microsecond-latency device emulator are all expressed as events and
// processes scheduled on a single Engine.
//
// Determinism is a hard requirement inherited from the paper's
// methodology (§IV-A: "We ensure that the memory access sequence remains
// deterministic across these runs"): events firing at the same
// simulated time are executed in scheduling order, and processes are
// coroutines that run one at a time, handing control back to the engine
// whenever they block, so a simulation with the same inputs always
// produces the same trace.
package sim

import "fmt"

// Time is a simulated point in time or duration, in picoseconds.
//
// Picosecond resolution is used so that sub-nanosecond quantities (a
// 2.3 GHz CPU cycle is ~434.8 ps) accumulate without rounding drift over
// millions of iterations.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromNanoseconds converts a floating-point nanosecond quantity to Time,
// rounding to the nearest picosecond.
func FromNanoseconds(ns float64) Time {
	if ns < 0 {
		return -FromNanoseconds(-ns)
	}
	return Time(ns*float64(Nanosecond) + 0.5)
}

// FromSeconds converts a floating-point second quantity to Time.
func FromSeconds(s float64) Time { return FromNanoseconds(s * 1e9) }

// String formats the time with an adaptive unit, e.g. "1.25us".
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t%Second == 0:
		return fmt.Sprintf("%ds", t/Second)
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond || t <= -Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

func maxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
