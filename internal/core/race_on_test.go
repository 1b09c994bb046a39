//go:build race

package core_test

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation allocates on paths that are
// allocation-bounded in a plain build.
const raceEnabled = true
