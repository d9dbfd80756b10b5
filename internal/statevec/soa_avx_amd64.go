//go:build amd64

package statevec

// AVX2+FMA tile kernels. The gc compiler emits scalar FP code for the SoA
// loops in soa.go, which leaves the staged executor ALU-bound: a deep
// QAOA/TFIM sweep spends most of its time in 6-flop/amplitude butterflies.
// These hand-written kernels process four amplitudes per instruction and are
// selected at runtime when the CPU reports AVX2+FMA (and the OS enables YMM
// state); everything falls back to the portable Go loops otherwise.
//
// Layout contract: callers pass tile sub-slices whose lengths are powers of
// two, so a length >= 4 is always a multiple of 4 and the kernels need no
// scalar tail. Strided kernels additionally require the block length (the
// target bit's value) to be >= 4 for aligned 4-lane groups; bits 0 and 1 go
// through the pair-shuffle kernels that permute partners inside a YMM
// register instead.

var useAVX = detectAVX2()

// detectAVX2 reports AVX2+FMA with OS-enabled YMM state: CPUID leaf 1 ECX
// must show OSXSAVE+AVX+FMA, XCR0 must enable XMM+YMM saving, and leaf 7
// EBX must show AVX2.
func detectAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	const fma = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	_, _, c1, _ := cpuidex(1, 0)
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	return b7&(1<<5) != 0
}

func cpuidex(leaf, sub uint32) (ax, bx, cx, dx uint32)

func xgetbv0() (lo, hi uint32)

// rxStrideAVX applies [[c0, i*v0], [i*v1, c1]] across the whole tile:
// for every block pair (low half at base, high half at base+blk),
// r0' = c0*r0 - v0*i1, i0' = c0*i0 + v0*r1, r1' = c1*r1 - v1*i0,
// i1' = c1*i1 + v1*r0. blk must be a multiple of 4, total a multiple
// of 2*blk.
//
//go:noescape
func rxStrideAVX(re, im *float64, total, blk int, c0, v0, v1, c1 float64)

// hStrideAVX applies the Hadamard butterfly r0' = inv*(r0+r1),
// r1' = inv*(r0-r1) (same on im) across the tile.
//
//go:noescape
func hStrideAVX(re, im *float64, total, blk int, inv float64)

// u1StrideAVX applies a generic complex 2x2 across the tile.
// m = [m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i].
//
//go:noescape
func u1StrideAVX(re, im *float64, total, blk int, m *[8]float64)

// diag1StrideAVX multiplies low halves by d0 and high halves by d1.
// d = [d0r, d0i, d1r, d1i].
//
//go:noescape
func diag1StrideAVX(re, im *float64, total, blk int, d *[4]float64)

// u1PairAAVX applies a 2x2 on bit 0: partners are adjacent lanes
// (VSHUFPD). coef = Ar[4], Ai[4], Br[4], Bi[4] lane vectors encoding the
// per-lane diagonal (A) and off-diagonal (B) matrix entries:
// r' = Ar*r - Ai*i + Br*P(r) - Bi*P(i), i' = Ar*i + Ai*r + Br*P(i) + Bi*P(r)
// with P the partner permutation. n must be a multiple of 4.
//
//go:noescape
func u1PairAAVX(re, im *float64, n int, coef *[16]float64)

// u1PairBAVX is u1PairAAVX for bit 1: partners are the opposite 128-bit
// half (VPERM2F128).
//
//go:noescape
func u1PairBAVX(re, im *float64, n int, coef *[16]float64)

// cmulVecAVX multiplies (re, im) elementwise by the complex table (fr, fi):
// r' = r*fr - i*fi, i' = r*fi + i*fr. n must be a multiple of 4.
//
//go:noescape
func cmulVecAVX(re, im, fr, fi *float64, n int)

// cmulScalarAVX multiplies (re, im) by the complex scalar (sr, si).
// n must be a multiple of 4.
//
//go:noescape
func cmulScalarAVX(re, im *float64, n int, sr, si float64)

// pairCoef builds the u1Pair lane-coefficient vectors for a 2x2
// [[m00, m01], [m10, m11]] on bit value blk (1 or 2): lanes in role 0
// (bit clear) carry A=m00, B=m01; lanes in role 1 carry A=m11, B=m10.
func pairCoef(coef *[16]float64, blk int, m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i float64) {
	for l := 0; l < 4; l++ {
		if l&blk == 0 {
			coef[l] = m00r
			coef[4+l] = m00i
			coef[8+l] = m01r
			coef[12+l] = m01i
		} else {
			coef[l] = m11r
			coef[4+l] = m11i
			coef[8+l] = m10r
			coef[12+l] = m10i
		}
	}
}

// soa1QAVX dispatches a generic complex 2x2 to the AVX kernels. Returns
// false when the geometry is out of range (tiny tiles) and the caller must
// run the scalar loop.
func soa1QAVX(re, im []float64, m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i float64, blk int) bool {
	if len(re) < 4 {
		return false
	}
	if blk >= 4 {
		m := [8]float64{m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i}
		u1StrideAVX(&re[0], &im[0], len(re), blk, &m)
		return true
	}
	var coef [16]float64
	pairCoef(&coef, blk, m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i)
	if blk == 1 {
		u1PairAAVX(&re[0], &im[0], len(re), &coef)
	} else {
		u1PairBAVX(&re[0], &im[0], len(re), &coef)
	}
	return true
}
