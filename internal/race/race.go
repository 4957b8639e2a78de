//go:build race

// Package race reports whether the binary was built with the race
// detector. The detector instruments allocations, so tests that pin
// allocation counts skip themselves when Enabled is true.
package race

// Enabled is true when the race detector is on.
const Enabled = true
