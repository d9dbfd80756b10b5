//go:build linux

package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a few vCPUs of a shared machine, and
// what its neighbours do changes how fast those vCPUs execute the same
// instructions: the CPU time of a fixed cache-resident load/store-bound loop
// swings by up to 2× over seconds to minutes, and every time-derived metric
// of every workload swings with it, the daemon's CPU time per op included
// (README, "The noise"). A run therefore measures the machine's speed while
// it measures the program: a calibrator thread executes a fixed reference
// kernel every calPeriod, and each time-derived metric is reported at the
// reference speed, i.e. divided (a rate: multiplied) by the speed factor of
// the stretch of the run it was measured in. The values as the clock read
// them are in the report's extras under raw_.

const (
	calPeriod = 50 * time.Millisecond
	// refNominalMS is what the reference kernel costs on a quiet vCPU of the
	// VM the benchmark was defined on; a speed factor of 1 is that machine.
	refNominalMS = 0.66
)

var (
	refBuf  = make([]complex128, 1<<12) // 64 KiB: cache-resident
	refSink float64
)

// refKernel is the fixed reference work: a butterfly sweep bound by
// load/store throughput, which a busy neighbour slows by up to 2×, then a
// dependent multiply-add chain bound by latency, which it barely moves — on
// a quiet vCPU about 0.3 ms and 0.36 ms. The programs measured here are a
// mix of both kinds of code, and how hard a noisy stretch hits them lies
// between the two: over nine series of 12–15 runs of the eight workloads, this
// mix left a run-to-run spread (inter-quartile range over median) of the op
// rate of 4–9 % where the clock's own reading spread by up to 32 %; the
// sweep alone over-corrects the kernel-bound workloads by as much.
func refKernel() {
	buf := refBuf
	for i := range buf {
		buf[i] = complex(1/float64(len(buf)), 0)
	}
	half := len(buf) / 2
	for p := 0; p < 64; p++ {
		for i := 0; i < half; i++ {
			x, y := buf[i], buf[i+half]
			buf[i] = (x + y) * complex(0.70710678, 0)
			buf[i+half] = (x - y) * complex(0.70710678, 0)
		}
	}
	a := real(buf[0])
	for i := 0; i < 150000; i++ {
		a = a*0.999999 + 1e-9
	}
	refSink += a
}

// threadCPU is the CPU time the calling OS thread has used. The kernel's
// cost is taken in CPU time, not wall time, so that being descheduled in
// favour of the benchmark's own clients does not read as a slow machine.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calSample is one execution of the reference kernel.
type calSample struct {
	at time.Time
	ms float64
}

// calibrator samples the machine's speed for the length of a run.
type calibrator struct {
	mu      sync.Mutex
	samples []calSample // in time order
	used    float64     // ms of CPU over all samples
	quit    chan struct{}
	done    chan struct{}
}

func startCalibrator() *calibrator {
	c := &calibrator{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(calPeriod)
		defer tick.Stop()
		for {
			at, t0 := time.Now(), threadCPU()
			refKernel()
			s := calSample{at, ms(threadCPU() - t0)}
			c.mu.Lock()
			c.samples = append(c.samples, s)
			c.used += s.ms
			c.mu.Unlock()
			select {
			case <-c.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return c
}

// usedMS is the CPU time the calibrator itself has spent, which is not the
// client's cost of an op.
func (c *calibrator) usedMS() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

func (c *calibrator) stop() {
	close(c.quit)
	<-c.done
}

// speed is the machine's speed factor over [from, to): the median cost of
// the reference kernel there over its nominal cost, so 1.25 means the
// machine took a quarter longer than the reference machine for the same
// work. A stretch too short to hold a sample takes the sample nearest to it.
func (c *calibrator) speed(from, to time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.samples
	if len(s) == 0 {
		return 1
	}
	lo := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(from) })
	hi := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(to) })
	if lo == hi {
		if lo == len(s) || lo > 0 && from.Sub(s[lo-1].at) < s[lo].at.Sub(from) {
			lo--
		}
		return s[lo].ms / refNominalMS
	}
	v := make([]float64, 0, hi-lo)
	for _, x := range s[lo:hi] {
		v = append(v, x.ms)
	}
	return median(v) / refNominalMS
}
