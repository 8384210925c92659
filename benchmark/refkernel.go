package main

import "time"

// The reference kernel is the benchmark's yardstick for the speed of the host
// at the moment of measuring. The sandbox slows down for minutes at a time
// (a busy neighbour: the layer probes read 1.2x to 1.8x slower, memory-bound
// ones most, while process CPU time grows with wall time), and no statistic
// taken inside a 20 s run can remove that. So every run times this fixed
// piece of harness code next to every iteration and reports host times in
// "reference seconds": seconds of a host on which one kernel sample takes
// exactly refNominal.
//
// The kernel does what the simulator's hot paths do: data-dependent
// read-modify-writes, a data-dependent branch, and some arithmetic. Its
// working set is 512 KB on purpose: over 8 MB the fast quantile of one
// process differed from the next one's by 5 % on a quiet host (physical page
// placement), over 512 KB by 0.3 %. It is part of the benchmark definition
// and must not change.

const (
	refWords   = 1 << 16 // 512 KB
	refSteps   = 3_600_000
	refNominal = 10 * time.Millisecond
)

var (
	refBuf  = make([]uint64, refWords)
	refSink uint64
)

// refSample runs the kernel once and returns how long it took.
func refSample() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (refWords - 1)
		v := refBuf[j]
		if v&1 == 0 {
			acc += v
		} else {
			acc ^= v
		}
		refBuf[j] = v + x
	}
	refSink += acc
	return time.Since(t0).Seconds()
}

// hostSlowdown turns kernel samples into the factor by which the host was
// slower than the nominal one. Like iteration times, the samples are read at
// the fast quantile.
func hostSlowdown(samples []float64) float64 {
	return quantile(samples, fastQuantile) / refNominal.Seconds()
}
