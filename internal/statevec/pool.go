package statevec

import (
	"runtime"
	"sync"
)

// Persistent kernel worker pool: gate kernels used to spawn fresh goroutines
// per gate, which at QAOA/TFIM gate counts means tens of thousands of
// short-lived goroutines per circuit. The pool starts GOMAXPROCS long-lived
// workers once (lazily) and feeds them contiguous index ranges over a
// channel; the submitting goroutine executes the final chunk itself, so a
// serial-sized kernel never pays a handoff.

type kernelTask struct {
	start, end int
	body       func(start, end int)
	wg         *sync.WaitGroup
}

var (
	poolOnce  sync.Once
	poolTasks chan kernelTask
	poolSize  int
)

func startKernelPool() {
	poolSize = runtime.GOMAXPROCS(0)
	poolTasks = make(chan kernelTask, 4*poolSize)
	for i := 0; i < poolSize; i++ {
		go func() {
			for t := range poolTasks {
				t.body(t.start, t.end)
				t.wg.Done()
			}
		}()
	}
}

// parallelThreshold is the amplitude count below which kernels run serially:
// chunk handoff costs more than the loop itself on small states.
const parallelThreshold = 1 << 12

// parallelFor splits [0, n) into contiguous chunks across the state's
// workers using the shared persistent pool. Kernels must be leaf work: a
// body must never submit pool work of its own.
func (s *State) parallelFor(n int, body func(start, end int)) {
	ParallelFor(s.Workers, n, parallelThreshold, body)
}

// ParallelFor splits [0, n) into contiguous chunks across the shared
// persistent kernel pool, running serially when workers <= 1 or n is below
// minParallel (callers pick the threshold: amplitude kernels use the
// amplitude-count default; the MPS engine parallelizes over bond rows,
// whose per-element cost is orders of magnitude higher). Bodies must be
// leaf work — never submit pool work of their own.
func ParallelFor(workers, n, minParallel int, body func(start, end int)) {
	w := workers
	if w <= 1 || n < minParallel || n < 2 {
		body(0, n)
		return
	}
	poolOnce.Do(startKernelPool)
	if w > poolSize {
		w = poolSize
	}
	if w > n {
		w = n
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end >= n {
			end = n
			body(start, end) // run the last chunk on the caller
			break
		}
		wg.Add(1)
		poolTasks <- kernelTask{start: start, end: end, body: body, wg: &wg}
	}
	wg.Wait()
}

// Amplitude-buffer arena: batched execution allocates (and promptly
// discards) a 2^n complex128 vector per batch element, plus probability and
// alias tables per sampling call. The arenas recycle them across elements.
// Returning buffers is optional (sync.Pool tolerates leaks); Release and the
// sampler return them on the hot paths.

var (
	ampArena [31]sync.Pool
	f64Arena [31]sync.Pool
	intArena [31]sync.Pool
)

// getAmpBuf returns an uninitialized 2^n amplitude buffer.
func getAmpBuf(n int) []complex128 {
	if v := ampArena[n].Get(); v != nil {
		return v.([]complex128)
	}
	return make([]complex128, 1<<uint(n))
}

func putAmpBuf(n int, buf []complex128) {
	if len(buf) == 1<<uint(n) {
		ampArena[n].Put(buf) //nolint:staticcheck // slice header allocation is amortized
	}
}

func getF64Buf(n int) []float64 {
	if v := f64Arena[n].Get(); v != nil {
		return v.([]float64)
	}
	return make([]float64, 1<<uint(n))
}

func putF64Buf(n int, buf []float64) {
	if len(buf) == 1<<uint(n) {
		f64Arena[n].Put(buf) //nolint:staticcheck
	}
}

func getIntBuf(n int) []int {
	if v := intArena[n].Get(); v != nil {
		return v.([]int)
	}
	return make([]int, 1<<uint(n))
}

func putIntBuf(n int, buf []int) {
	if len(buf) == 1<<uint(n) {
		intArena[n].Put(buf) //nolint:staticcheck
	}
}

// Release returns the state's amplitude buffer to the arena. The state is
// unusable afterwards; callers that hand the state out must not release it.
// Releasing is optional — unreleased buffers are garbage collected normally.
func (s *State) Release() {
	if s.Amp == nil {
		return
	}
	putAmpBuf(s.N, s.Amp)
	s.Amp = nil
}
