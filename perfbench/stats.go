package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// median returns the median of the values (the mean of the middle two
// for an even count), or 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail.
const tailBeyond = 10

// tailStat is the highest whole percentile, at most the 99th, that
// still has at least tailBeyond samples above its nearest-rank value,
// with the sample count it rests on.
type tailStat struct {
	Value      float64
	Percentile int
	Samples    int
	OK         bool // false when there are too few samples for any tail
}

// tail reads the nearest-rank p-th percentile x[ceil(p*n/100)-1] at the
// largest whole p <= 99 that leaves tailBeyond samples beyond it.
// Whole percentiles keep the reported rank from sliding into the
// last few hiccups of a run with tens of thousands of samples.
func tail(vs []float64) tailStat {
	n := len(vs)
	st := tailStat{Samples: n}
	if n <= tailBeyond {
		return st
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	p := min(99, 100*(n-tailBeyond)/n)
	st.Value = s[(p*n+99)/100-1]
	st.Percentile = p
	st.OK = true
	return st
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func since(t time.Time) float64 { return time.Since(t).Seconds() }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// memMeter measures allocation over a phase and the live heap after it.
type memMeter struct{ start uint64 }

func startMem() memMeter {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMeter{start: m.TotalAlloc}
}

// stop returns the bytes allocated since start and the heap in use
// after a forced collection.
func (mm memMeter) stop() (alloc, live uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	alloc = m.TotalAlloc - mm.start
	runtime.GC()
	runtime.ReadMemStats(&m)
	return alloc, m.HeapInuse
}

// cpuTime returns the process's CPU time at nanosecond resolution
// (CLOCK_PROCESS_CPUTIME_ID). The kernel leaves out time the virtual
// CPUs were descheduled by their host, so on a shared machine it
// varies less than wall time.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
