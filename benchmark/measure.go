package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/trustddl/trustddl/internal/tensor"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procCounters is a point-in-time reading of what the whole benchmark
// process (all five actors plus the generator) has consumed so far.
type procCounters struct {
	at       time.Time
	cpu      time.Duration // user+sys, getrusage(RUSAGE_SELF)
	maxRSSKB int64
	mem      runtime.MemStats
	poolHits int64 // buffer requests the tensor pool served
	poolMiss int64 // buffer requests it allocated afresh
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuOf(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readProc() procCounters {
	ru := rusage()
	p := procCounters{
		at:       time.Now(),
		cpu:      cpuOf(ru),
		maxRSSKB: int64(ru.Maxrss),
	}
	runtime.ReadMemStats(&p.mem)
	p.poolHits, _, p.poolMiss = tensor.PoolStats()
	return p
}

// procDelta is what one measured window consumed.
type procDelta struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	allocs     uint64
	gcPause    time.Duration
	poolHits   int64
	poolMiss   int64
	peakRSSMB  float64
}

func (a procCounters) until(b procCounters) procDelta {
	return procDelta{
		wall:       b.at.Sub(a.at),
		cpu:        b.cpu - a.cpu,
		allocBytes: b.mem.TotalAlloc - a.mem.TotalAlloc,
		allocs:     b.mem.Mallocs - a.mem.Mallocs,
		gcPause:    time.Duration(b.mem.PauseTotalNs - a.mem.PauseTotalNs),
		poolHits:   b.poolHits - a.poolHits,
		poolMiss:   b.poolMiss - a.poolMiss,
		peakRSSMB:  float64(b.maxRSSKB) / 1024,
	}
}
