package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of samples by the
// nearest-rank rule — the smallest sample with at least q·n samples at or
// below it — together with the sample count it was cut from. samples must
// be sorted ascending; an empty slice yields (0, 0).
func percentile(sorted []time.Duration, q float64) (time.Duration, int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n
}

// tailOK reports whether the q-quantile of n samples has at least ten
// samples beyond it, the least a reported tail percentile may rest on.
func tailOK(q float64, n int) bool {
	return float64(n)-math.Ceil(q*float64(n)) >= 10
}

// sortDurations sorts in place and returns its argument.
func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// median of a float slice (copied, not modified); 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user plus system CPU time so far, from
// getrusage(RUSAGE_SELF): every thread of the process, the runtime's
// garbage collector included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// perOp divides safely: 0 when nothing was done.
func perOp(total float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return total / float64(ops)
}
