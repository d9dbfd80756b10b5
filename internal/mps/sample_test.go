package mps

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"qfw/internal/circuit"
	"qfw/internal/workloads"
)

// sampleOracle is the per-shot sampler Sample replaced: every shot walks
// every site, contracting both branches of its own conditioned bond vector
// and drawing one uniform wherever the two branches carry weight. Sample
// must return its histogram and leave rng where it leaves it.
func sampleOracle(m *MPS, shots int, rng *rand.Rand) map[string]int {
	if shots <= 0 {
		return nil
	}
	m.moveCenterTo(0)
	maxChi := 1
	for _, t := range m.sites {
		if t.chiR > maxChi {
			maxChi = t.chiR
		}
	}
	left := make([]complex128, maxChi)
	v0 := make([]complex128, maxChi)
	v1 := make([]complex128, maxChi)
	counts := make(map[string]int, 16)
	key := make([]byte, m.N)
	for shot := 0; shot < shots; shot++ {
		left[0] = 1
		width := 1
		for i := 0; i < m.N; i++ {
			t := m.sites[i]
			condVec(left[:width], t, 0, v0[:t.chiR])
			condVec(left[:width], t, 1, v1[:t.chiR])
			p0 := norm2(v0[:t.chiR])
			p1 := norm2(v1[:t.chiR])
			total := p0 + p1
			s := 0
			src := v0
			if total <= 0 {
				v0[0] = 1
				for j := 1; j < t.chiR; j++ {
					v0[j] = 0
				}
			} else if rng.Float64()*total < p1 {
				s = 1
				src = v1
			}
			normalize(src[:t.chiR])
			copy(left[:t.chiR], src[:t.chiR])
			width = t.chiR
			if s == 0 {
				key[m.N-1-m.qubitForSite(i)] = '0'
			} else {
				key[m.N-1-m.qubitForSite(i)] = '1'
			}
		}
		counts[string(key)]++
	}
	return counts
}

// condVec contracts the running left vector with physical index s of site t
// into dst (len t.chiR).
func condVec(left []complex128, t *site, s int, dst []complex128) {
	for r := range dst {
		dst[r] = 0
	}
	for l := 0; l < t.chiL; l++ {
		lv := left[l]
		if lv == 0 {
			continue
		}
		row := (l*2 + s) * t.chiR
		for r := 0; r < t.chiR; r++ {
			dst[r] += lv * t.data[row+r]
		}
	}
}

func normalize(v []complex128) {
	n := math.Sqrt(norm2(v))
	if n == 0 {
		return
	}
	inv := complex(1/n, 0)
	for i := range v {
		v[i] *= inv
	}
}

// chunkShots is how many shots Sample draws ahead for an n-qubit state.
func chunkShots(n int) int { return max(1, sampleChunkBytes/8/n) }

// sampleWorkers are the worker counts Sample must agree with the oracle at:
// serial, one per vCPU of a small box, and more workers than it has cores.
var sampleWorkers = []int{1, 2, 8}

// checkAgainstOracle samples m with the per-shot oracle and with Sample at
// each of workers, all from the same seed, and fails unless the histograms
// are equal and, when sameRNG, every sampler leaves its rng at the same
// point of the stream.
func checkAgainstOracle(t testing.TB, name string, m *MPS, shots int, seed int64, sameRNG bool, workers ...int) {
	t.Helper()
	rw := rand.New(rand.NewSource(seed))
	want := sampleOracle(m, shots, rw)
	next := rw.Int63()
	for _, w := range workers {
		m.Workers = w
		rg := rand.New(rand.NewSource(seed))
		got := m.Sample(shots, rg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, %d shots, %d workers: prefix walk sampled %d keys, per-shot oracle %d, histograms differ",
				name, shots, w, len(got), len(want))
		}
		if g := rg.Int63(); sameRNG && g != next {
			t.Fatalf("%s, %d shots, %d workers: rng left at a different point (next Int63 %d, oracle %d)",
				name, shots, w, g, next)
		}
	}
}

func execute(t testing.TB, c *circuit.Circuit, opt Options) *MPS {
	t.Helper()
	cc, err := CompileCircuit(c.StripMeasurements())
	if err != nil {
		t.Fatal(err)
	}
	m, err := cc.Execute(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSampleMatchesPerShotOracle pins bit identity: the prefix walk returns
// the per-shot sampler's histogram, and leaves rng where it does, at every
// worker count, for the mps_ising circuits, routed random circuits of every
// small width, and shot counts on both sides of one and several draw-ahead
// chunks. The mps_ising circuits at 1024 and 3 chunks of shots are above
// parallelSampleWork, so with more than one worker they walk in parallel.
func TestSampleMatchesPerShotOracle(t *testing.T) {
	type tc struct {
		name string
		m    *MPS
	}
	cases := []tc{
		{"tfim-64", execute(t, workloads.TFIM(64, 4, 0.5, 1.0), Options{MaxBond: 32})},
		{"qaoa-ring-32", execute(t, workloads.RingQAOA(32, 2), Options{MaxBond: 32})},
	}
	routed := false
	for n := 1; n <= 10; n++ {
		m := execute(t, randCircuit(rand.New(rand.NewSource(int64(40+n))), n, 12*n), Options{})
		routed = routed || m.QubitOfSite != nil
		cases = append(cases, tc{fmt.Sprintf("rand-%d", n), m})
	}
	if !routed {
		t.Fatal("no random circuit left a routed chain permutation")
	}
	for _, c := range cases[:2] {
		if !parallelAt(c.m, 1024) {
			t.Fatalf("%s: a chunk of 1024 shots is below parallelSampleWork", c.name)
		}
	}
	// copies-8 has 32 outcomes, fewer than the subtrees the parallel walk
	// opens, so its expansion reaches the leaves. The per-gate engine
	// keeps each copy five sites from its source, where the compiled
	// engine would route the pairs together and shrink the bonds.
	fanout := circuit.New(8)
	for q := 0; q < 5; q++ {
		fanout.H(q)
	}
	for q := 0; q < 3; q++ {
		fanout.CX(q, q+5)
	}
	copies := New(8, 0, 0)
	if err := copies.Run(fanout); err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		tc{"fuzz-seed-8", execute(t, fuzzCircuit(8, fuzzSeedAboveFloor[1:]), Options{MaxBond: 8})},
		tc{"copies-8", copies})
	for _, c := range cases[len(cases)-2:] {
		if !parallelAt(c.m, chunkShots(8)) {
			t.Fatalf("%s: a full chunk is below parallelSampleWork", c.name)
		}
	}
	for i, c := range cases {
		chunk := chunkShots(c.m.N)
		for _, shots := range []int{1, 7, 1024, chunk + 1, 3 * chunk} {
			checkAgainstOracle(t, c.name, c.m, shots, int64(100*i+shots), true, sampleWorkers...)
		}
		c.m.Release()
	}
}

// TestSampleZeroWeightFallback covers nodes of zero weight, which take
// branch 0 without a draw. A zero root (a zero-norm state) samples shot by
// shot from the start and keeps the rng contract; a zero site below a
// nonzero root makes the chunk replay shot by shot from its buffered draws,
// which keeps the histogram.
func TestSampleZeroWeightFallback(t *testing.T) {
	zero := [2][2]complex128{}
	for _, n := range []int{1, 3, 6} {
		for _, shots := range []int{1, 7, 1024, chunkShots(n) + 1} {
			m := execute(t, randCircuit(rand.New(rand.NewSource(int64(n))), n, 10*n), Options{})
			m.Apply1Q(zero, m.center) // the gauge sweep carries it to the root
			checkAgainstOracle(t, fmt.Sprintf("zero-norm-%d", n), m, shots, int64(shots), true, sampleWorkers...)
			m.Release()
			if n == 1 {
				continue
			}
			m = execute(t, randCircuit(rand.New(rand.NewSource(int64(n))), n, 10*n), Options{})
			m.moveCenterTo(0)
			m.Apply1Q(zero, n-1)
			checkAgainstOracle(t, fmt.Sprintf("zero-tail-%d", n), m, shots, int64(shots), false, sampleWorkers...)
			m.Release()
		}
	}
}

// TestSampleZeroWeightBranch zeroes one branch's continuation: with the
// sites of (|00> + |11>)/√2 gauged by hand, a shot whose first bit is 1
// meets a zero-weight node at site 1, after shots on the other branch
// have already reached a leaf. The chunk's partial histogram is dropped and
// the chunk replayed shot by shot.
func TestSampleZeroWeightBranch(t *testing.T) {
	for _, shots := range []int{1, 7, 1024, chunkShots(2) + 1} {
		m := New(2, 0, 0)
		h := complex(1/math.Sqrt2, 0)
		m.sites[0] = &site{chiL: 1, chiR: 2, data: []complex128{h, 0, 0, h}}
		m.sites[1] = &site{chiL: 2, chiR: 1, data: []complex128{1, 0, 0, 0}} // row l=1 zeroed
		checkAgainstOracle(t, "zero-branch", m, shots, int64(shots), false, sampleWorkers...)
	}
}

// TestSampleZeroWeightBelowFrontier puts TestSampleZeroWeightBranch's two
// hand-gauged sites at the end of a TFIM chain, whose chunks walk in
// parallel: the serial expansion opens its subtrees above them, so workers
// meet the zero-weight node at the last site, after other subtrees have
// reached leaves. The chunk's counts on every walker are dropped and it is
// replayed shot by shot.
func TestSampleZeroWeightBelowFrontier(t *testing.T) {
	c := circuit.New(64)
	for _, g := range workloads.TFIM(62, 4, 0.5, 1.0).StripMeasurements().Gates {
		c.Append(g)
	}
	m := execute(t, c, Options{MaxBond: 32})
	defer m.Release()
	m.moveCenterTo(0)
	h := complex(1/math.Sqrt2, 0)
	m.sites[62] = &site{chiL: 1, chiR: 2, data: []complex128{h, 0, 0, h}}
	m.sites[63] = &site{chiL: 2, chiR: 1, data: []complex128{1, 0, 0, 0}} // row l=1 zeroed
	for _, shots := range []int{1024, 3 * chunkShots(m.N)} {
		cs := min(shots, chunkShots(m.N))
		if !parallelAt(m, cs) {
			t.Fatalf("a chunk of %d shots is below parallelSampleWork", cs)
		}
		for _, w := range []int{2, 8} {
			m.Workers = w
			s := newPrefixSampler(m, cs, rand.New(rand.NewSource(int64(shots))))
			s.draw(cs)
			if _, depth, ok := s.expand([]complex128{1}); !ok || depth >= 63 {
				t.Fatalf("%d workers: expansion stopped at site %d (ok %v), want above the zero-weight site 63", w, depth, ok)
			}
			checkAgainstOracle(t, "zero-branch-tfim-64", m, shots, int64(shots), false, w)
		}
	}
}

// parallelAt reports whether Sample walks a chunk of cs shots of m on all
// workers.
func parallelAt(m *MPS, cs int) bool {
	return cs*newPrefixSampler(m, 1, nil).work >= parallelSampleWork
}

// TestSampleMemoryBounded pins the draw-ahead cap: a million shots of a
// 64-qubit product state allocate about one chunk of uniforms, not the
// 512 MiB that drawing every shot's uniforms up front would take.
func TestSampleMemoryBounded(t *testing.T) {
	m := New(64, 0, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	counts := m.Sample(1<<20, rand.New(rand.NewSource(1)))
	runtime.ReadMemStats(&after)
	if len(counts) != 1 || counts[strings.Repeat("0", 64)] != 1<<20 {
		t.Fatalf("product state sampled %d keys, want all shots on one", len(counts))
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 4<<20 {
		t.Fatalf("Sample(2^20) allocated %d MiB, want a few", grown>>20)
	}
}

// FuzzMPSSample builds a small circuit from the fuzz bytes, optionally
// zeroes one site, and checks the prefix walk at 1, 2 or 8 workers against
// the per-shot oracle at up to three draw-ahead chunks of shots. Only 7 and
// 8 qubits can reach parallelSampleWork in one chunk; the fourth seed does.
func FuzzMPSSample(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 9, 0, 1, 4, 2, 0}, int64(1), uint32(1024))
	f.Add([]byte{8, 17, 5, 0, 3, 3, 1, 11, 0, 5, 7, 2, 1}, int64(7), uint32(300000))
	f.Add([]byte{2, 255, 1, 0, 1}, int64(3), uint32(5))
	f.Add(fuzzSeedAboveFloor, int64(11), uint32(40000))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, shotsIn uint32) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%8
		c := fuzzCircuit(n, data[1:])
		m := execute(t, c, Options{MaxBond: 1 + int(data[0]/8)%8})
		defer m.Release()
		shots := 1 + int(shotsIn)%(3*chunkShots(n))
		sameRNG := true
		if len(data) > 1 && data[1] == 255 {
			m.moveCenterTo(0)
			m.Apply1Q([2][2]complex128{}, int(data[len(data)-1])%n)
			sameRNG = false
		}
		checkAgainstOracle(t, "fuzz", m, shots, seed, sameRNG, sampleWorkers[int(data[0]/64)%3])
	})
}

// fuzzSeedAboveFloor is 8 qubits at MaxBond 8 and 2 workers, entangled by
// layers of RY and CX, so that a full chunk walks in parallel.
var fuzzSeedAboveFloor = func() []byte {
	data := []byte{127}
	for layer := 0; layer < 6; layer++ {
		for q := 0; q < 8; q++ {
			data = append(data, 3, byte(q), byte(37*layer+19*q+11)) // RY
		}
		for q := layer % 2; q < 7; q += 2 {
			data = append(data, 6, byte(q), 0) // CX(q, q+1)
		}
	}
	return data
}()

// fuzzCircuit reads gates three bytes at a time: kind, operands, angle.
func fuzzCircuit(n int, data []byte) *circuit.Circuit {
	kinds := []circuit.Kind{
		circuit.KindH, circuit.KindX, circuit.KindRX, circuit.KindRY, circuit.KindRZ,
		circuit.KindT, circuit.KindCX, circuit.KindCZ, circuit.KindRZZ, circuit.KindSWAP,
	}
	c := circuit.New(n)
	for ; len(data) >= 3; data = data[3:] {
		k := kinds[int(data[0])%len(kinds)]
		a := int(data[1]) % n
		g := circuit.Gate{Kind: k, Qubits: []int{a}}
		if k.NumQubits() == 2 {
			if n < 2 {
				continue
			}
			b := (a + 1 + int(data[1]>>4)%(n-1)) % n
			g.Qubits = append(g.Qubits, b)
		}
		if k.NumParams() == 1 {
			g.Params = []circuit.Param{circuit.Bound(2 * math.Pi * float64(data[2]) / 256)}
		}
		c.Append(g)
	}
	return c
}

// BenchmarkSample times Sample(1024) on the mps_ising circuits, on one
// worker and on two, against the per-shot oracle it replaced.
func BenchmarkSample(b *testing.B) {
	for _, c := range []struct {
		name string
		circ *circuit.Circuit
	}{
		{"tfim-64", workloads.TFIM(64, 4, 0.5, 1.0)},
		{"qaoa-ring-32", workloads.RingQAOA(32, 2)},
	} {
		m := execute(b, c.circ, Options{MaxBond: 32})
		for _, s := range []struct {
			name    string
			workers int
			sample  func(*MPS, int, *rand.Rand) map[string]int
		}{{"prefix", 1, (*MPS).Sample}, {"prefix-2workers", 2, (*MPS).Sample}, {"per-shot", 1, sampleOracle}} {
			b.Run(c.name+"/"+s.name, func(b *testing.B) {
				m.Workers = s.workers
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s.sample(m, 1024, rand.New(rand.NewSource(int64(i))))
				}
			})
		}
		m.Release()
	}
}
