package statevec

// Tile size and worker count of the cache-blocked staged engine. They are
// constants of the build — tile 14, one worker per GOMAXPROCS, staged from 18
// qubits — so every process runs the configuration the tests and the
// benchmark run. QFW_TUNE overrides them for experiments:
//
//	"off"                    — disable the staged path entirely,
//	"deterministic"          — the defaults, spelled out,
//	"tile=T,workers=W,min=M" — explicit values (any subset).
//
// A value that is none of these is reported once on stderr and the defaults
// apply.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
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

const (
	defaultTileBits  = 14
	defaultMinQubits = 18
	tuneDisabled     = 1 << 30
)

var (
	tuneOnce sync.Once
	tuneVal  Tuning
)

// CurrentTuning resolves (once per process) and returns the staged-engine
// tuning.
func CurrentTuning() Tuning {
	tuneOnce.Do(func() { tuneVal = resolveTuning(os.Stderr) })
	return tuneVal
}

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

func deterministicTuning() Tuning {
	return Tuning{
		TileBits:  defaultTileBits,
		Workers:   runtime.GOMAXPROCS(0),
		MinQubits: defaultMinQubits,
	}
}

// resolveTuning applies QFW_TUNE over the defaults; warn receives the one
// line reporting a malformed value.
func resolveTuning(warn io.Writer) Tuning {
	def := deterministicTuning()
	env := strings.TrimSpace(os.Getenv("QFW_TUNE"))
	if env == "" {
		return def
	}
	t, ok := parseTuneEnv(env)
	if !ok {
		fmt.Fprintf(warn, "qfw: QFW_TUNE=%q is not off, deterministic or tile=T,workers=W,min=M; using the defaults (tile=%d,workers=%d,min=%d)\n",
			env, def.TileBits, def.Workers, def.MinQubits)
		return def
	}
	return t
}

// parseTuneEnv interprets the QFW_TUNE override; ok is false when no part of
// the value is a valid setting.
func parseTuneEnv(env string) (Tuning, bool) {
	t := deterministicTuning()
	switch strings.ToLower(env) {
	case "off":
		t.MinQubits = tuneDisabled
		return t, true
	case "deterministic":
		return t, true
	}
	any := false
	for _, part := range strings.Split(env, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			continue
		}
		iv, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			continue
		}
		switch strings.ToLower(strings.TrimSpace(k)) {
		case "tile":
			if iv >= 4 && iv <= 24 {
				t.TileBits = iv
				any = true
			}
		case "workers":
			if iv >= 1 {
				t.Workers = iv
				any = true
			}
		case "min":
			if iv >= 1 {
				t.MinQubits = iv
				any = true
			}
		}
	}
	return t, any
}
