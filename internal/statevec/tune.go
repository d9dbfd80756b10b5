package statevec

// Tile size and worker count of the cache-blocked staged engine. They are
// constants of the build — tile 14, one worker per GOMAXPROCS, staged from 18
// qubits — so every process runs the configuration the tests and the
// benchmark run.

import (
	"runtime"
	"sync"
)

// Tuning is the staged engine's configuration.
type Tuning struct {
	// TileBits is log2 amplitudes per cache tile. A tile occupies
	// 2^TileBits * 16 bytes across the split re/im buffers; the default
	// (14, 256 KiB) keeps two tiles plus the diagonal tables resident in a
	// modern 1-2 MiB L2. Use TileBitsFor for a concrete state size — large
	// states grow the tile beyond the base.
	TileBits int
	// Workers is the recommended kernel worker count for callers that do
	// not pin their own.
	Workers int
	// MinQubits gates the staged path: below it the whole statevector is
	// cache-resident anyway and the per-op fused path wins on overhead.
	MinQubits int
}

// CurrentTuning returns the staged-engine tuning: the build's constants,
// with the worker count read from GOMAXPROCS once per process.
func CurrentTuning() Tuning { return tuning() }

var tuning = sync.OnceValue(func() Tuning {
	return Tuning{TileBits: 14, Workers: runtime.GOMAXPROCS(0), MinQubits: 18}
})

// TileBitsFor returns the tile size for an n-qubit state. The base TileBits
// suits moderate state sizes; for larger states the tile grows so the tile
// count stays at most 2^9 — every tile costs one pass of scattered
// gather chunks at a remap, and on a multi-hundred-MB state each chunk is a
// TLB walk, so fewer, longer chunks win. Growth is capped two doublings
// above the base and at 16: a 2^17 tile is 2 MiB across the split re/im
// buffers, which evicts the whole L2 on every contemporary part (measured
// regression on deep workloads at n=26), so growth never passes 16 even
// when the base would allow it.
func (t Tuning) TileBitsFor(n int) int {
	tb := t.TileBits
	if scaled := n - 9; scaled > tb {
		lim := t.TileBits + 2
		if lim > 16 {
			lim = 16
			if t.TileBits > lim {
				lim = t.TileBits
			}
		}
		tb = scaled
		if tb > lim {
			tb = lim
		}
	}
	if tb > n {
		tb = n
	}
	return tb
}
