package statevec

import "math/rand"

// SampleCounts draws shots samples from the final state distribution and
// returns a histogram keyed by bitstring (qubit 0 is the rightmost char),
// or nil when shots <= 0: an analytic request draws nothing.
//
// Sampling uses Vose's alias method: one O(2^n) table build (the same
// asymptotic cost the old cumulative array paid) followed by O(1) per shot,
// replacing the per-shot O(n) binary search. All working buffers come from
// the arena, so batched executions sample without reallocating.
func (s *State) SampleCounts(shots int, rng *rand.Rand) map[string]int {
	if shots <= 0 {
		return nil
	}
	prob := getF64Buf(s.N)
	total := fillProbs(prob, s.Amp, s.Workers)
	if total <= 0 {
		// Degenerate all-zero state: report |0...0> like a fresh register.
		putF64Buf(s.N, prob)
		return map[string]int{FormatBits(0, s.N): shots}
	}
	idxCounts := aliasDraw(prob, s.N, shots, total, rng)
	putF64Buf(s.N, prob)
	counts := make(map[string]int, len(idxCounts))
	for i, c := range idxCounts {
		counts[FormatBits(i, s.N)] = c
	}
	return counts
}

// fillProbs writes the squared magnitudes of amp into prob and returns
// their sum. The fill is the sampler's only full-state sweep, so it chunks
// across the worker pool like the kernels; each chunk accumulates a partial
// sum locally (one cache line per worker, no sharing) before the serial
// reduce.
func fillProbs(prob []float64, amp []complex128, workers int) float64 {
	if workers <= 1 || len(amp) < parallelThreshold {
		var total float64
		for i, a := range amp {
			p := real(a)*real(a) + imag(a)*imag(a)
			prob[i] = p
			total += p
		}
		return total
	}
	chunk := (len(amp) + workers - 1) / workers
	partial := make([]float64, workers)
	ParallelFor(workers, workers, 1, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			start := w * chunk
			end := start + chunk
			if end > len(amp) {
				end = len(amp)
			}
			var acc float64
			for i := start; i < end; i++ {
				a := amp[i]
				p := real(a)*real(a) + imag(a)*imag(a)
				prob[i] = p
				acc += p
			}
			partial[w] = acc
		}
	})
	var total float64
	for _, p := range partial {
		total += p
	}
	return total
}

// aliasDraw builds a Vose alias table over prob (a 2^nbits arena-sized
// buffer of unnormalized probabilities summing to total, rescaled in place)
// and draws shots basis indices — the sampling core shared by the
// single-node and distributed engines. Returns an index histogram; nil when
// there is nothing to draw.
func aliasDraw(prob []float64, nbits, shots int, total float64, rng *rand.Rand) map[int]int {
	if shots <= 0 || total <= 0 {
		return nil
	}
	n := len(prob)
	alias := getIntBuf(nbits)
	small := getIntBuf(nbits)
	large := getIntBuf(nbits)
	scale := float64(n) / total
	ns, nl := 0, 0
	for i := 0; i < n; i++ {
		prob[i] *= scale
		alias[i] = i
		if prob[i] < 1 {
			small[ns] = i
			ns++
		} else {
			large[nl] = i
			nl++
		}
	}
	for ns > 0 && nl > 0 {
		sm := small[ns-1]
		lg := large[nl-1]
		ns--
		nl--
		alias[sm] = lg
		prob[lg] += prob[sm] - 1
		if prob[lg] < 1 {
			small[ns] = lg
			ns++
		} else {
			large[nl] = lg
			nl++
		}
	}
	for ; nl > 0; nl-- {
		prob[large[nl-1]] = 1
	}
	for ; ns > 0; ns-- {
		prob[small[ns-1]] = 1
	}

	// One uniform per shot: the integer part picks the column, the
	// fractional part decides column vs alias.
	idxCounts := make(map[int]int)
	for k := 0; k < shots; k++ {
		u := rng.Float64() * float64(n)
		i := int(u)
		if i >= n {
			i = n - 1
		}
		if u-float64(i) >= prob[i] {
			i = alias[i]
		}
		idxCounts[i]++
	}
	putIntBuf(nbits, alias)
	putIntBuf(nbits, small)
	putIntBuf(nbits, large)
	return idxCounts
}
