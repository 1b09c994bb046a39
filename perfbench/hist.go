package main

import (
	"math"
	"math/bits"
	"time"
)

// Latencies are counted in log-linear histograms rather than kept one by
// one, so the benchmark's own memory does not grow with the request rate
// and does not show in the program's peak RSS. Below histSub ns every
// nanosecond has its own bucket; above, each power of two is cut into
// histSub buckets, so a bucket is under 0.8 % of its value wide. Values
// from 2^35 ns (34 s) up share the last bucket.
const (
	histSub    = 128
	histShift  = 7 // log2(histSub)
	histRanges = 28
	histSize   = histSub + histRanges*histSub
)

func bucketOf(ns int64) int {
	if ns < histSub {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns)) - histShift - 1 // ns>>e is in [histSub, 2*histSub)
	i := histSub + e*histSub + int(ns>>uint(e)) - histSub
	return min(i, histSize-1)
}

// bucketSpan returns bucket i's lower bound and width in ns.
func bucketSpan(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := (i - histSub) / histSub
	m := histSub + (i-histSub)%histSub
	return float64(int64(m) << uint(e)), float64(int64(1) << uint(e))
}

// hist is one latency histogram: histSize counts.
type hist []uint32

func (h hist) add(d time.Duration) { h[bucketOf(int64(d))]++ }

func (h hist) merge(o hist) {
	for i, c := range o {
		h[i] += c
	}
}

func (h hist) count() int {
	n := 0
	for _, c := range h {
		n += int(c)
	}
	return n
}

// quantile returns the q-quantile (0 < q <= 1) by the nearest-rank rule
// and the sample count. Within the bucket holding that rank, samples are
// taken as spread evenly across the bucket. An empty histogram yields
// (0, 0).
func (h hist) quantile(q float64) (time.Duration, int) {
	n := h.count()
	if n == 0 {
		return 0, 0
	}
	rank := min(max(int(math.Ceil(q*float64(n))), 1), n)
	cum := 0
	for i, c := range h {
		if c == 0 {
			continue
		}
		if cum+int(c) >= rank {
			lo, w := bucketSpan(i)
			k := float64(rank - cum)
			return time.Duration(lo + (k-0.5)/float64(c)*w), n
		}
		cum += int(c)
	}
	return 0, n // unreachable: the loop reaches rank
}
