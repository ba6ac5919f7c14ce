//go:build amd64 && !purego

package interval

// amd64 side of the kernel dispatch: CPUID/XGETBV feature detection
// (hand-rolled — this module deliberately has no dependencies, so no
// golang.org/x/sys/cpu) and the Go half of the AVX2 four-lane kernel in
// kernel_amd64.s.
//
// The kernel rephrases Marzullo fusion as pure value selection, so a
// lane costs one branch-free pass over the base endpoint arrays and
// four lanes ride that pass at once. Coverage of a point x by closed
// intervals is cov(x) = #{Lo <= x} - #{Hi < x}, so the fusion interval
// of base ∪ candidate with threshold need = n-f is
//
//	lo = min{x among all Lo endpoints : cov(x) >= need}
//	hi = max{x among all Hi endpoints : cov(x) >= need}
//
// and fusion exists iff some Lo qualifies. This selects the same VALUES
// as the scalar two-pointer scans (fuseSorted, fuseMerged): their
// per-pick coverage tests are lower bounds that become exact at the
// last duplicate copy of each distinct value, so a value passes the
// scan iff cov(value) >= need — and the scans stop at the extreme
// qualifying values. Only comparisons and min/max touch the endpoints,
// so the result is bit-identical.
//
// Splitting cov(x) at a threshold x into a base part and a candidate
// part is what makes the pass branch-free and lane-parallel:
//
//   - For a BASE endpoint threshold x = blos[i] (or bhis[i]), the base
//     part of cov(x) depends only on (base, need) and is precomputed by
//     ensureKernelTables into thrLo/thrHi: lane qualification reduces
//     to "candidate contribution d > thr[i]", where d sums four
//     endpoint comparisons.
//   - For a CANDIDATE endpoint threshold, the base part
//     bcov(T) = #{blos <= T} - #{bhis < T} is accumulated in the same
//     pass over i, and the candidate's own contribution collapses to
//     constants by the within-lane sortedness (clo0 <= clo1,
//     chi0 <= chi1) — finalizeK2 below.

import "math"

// cpuidex executes CPUID with the given leaf and subleaf
// (kernel_amd64.s).
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask
// (kernel_amd64.s).
func xgetbv0() (eax, edx uint32)

// fuseK2AVX2 runs the four-lane k=2 kernel (kernel_amd64.s) over nb
// base endpoints for the four lane segments starting at clos/chis
// (Batch layout: stride 4, sentinels at slots 0 and 3). It writes the
// base-threshold selections to outLo/outHi ([4]float64, +Inf/-Inf when
// nothing qualified) and the base coverage at the 16 candidate
// thresholds to bcov ([16]int64, threshold-major: clo0 lanes 0-3, then
// clo1, chi0, chi1). When nb is 0 the pointers into the base arrays are
// dummies and must not be dereferenced — the assembly loop body is
// skipped entirely.
//
//go:noescape
func fuseK2AVX2(blos, bhis *float64, nb int, thrLo, thrHi *int64, clos, chis *float64, outLo, outHi *float64, bcov *int64)

// haveAVX2 reports runtime AVX2 support: AVX2 in CPUID.7.0:EBX plus
// OSXSAVE/AVX in CPUID.1:ECX with the OS actually enabling XMM+YMM
// state in XCR0 (the same ladder golang.org/x/sys/cpu walks).
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsaveAndAVX = 1<<27 | 1<<28
	if ecx1&osxsaveAndAVX != osxsaveAndAVX {
		return false
	}
	if xlo, _ := xgetbv0(); xlo&0x6 != 0x6 { // XMM and YMM state OS-enabled
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<5) != 0
}

// defaultKernel selects the startup kernel: the AVX2 four-lane kernel
// when the CPU supports it, the generic merge kernel otherwise.
func defaultKernel() kernelKind {
	if haveAVX2 {
		return kernelAVX2
	}
	return kernelGeneric
}

// kernelDummyF64/kernelDummyI64 give fuseK2AVX2 valid (never
// dereferenced) pointers when the base is empty.
var (
	kernelDummyF64 float64
	kernelDummyI64 int64
)

// fuseLanesAVX2 drives fuseK2AVX2 over b's lanes (k == 2) in groups of
// four and finalizes each lane's candidate thresholds in Go. Exactly
// one of out (FuseBatch) and widths (ScoreBatch) is non-nil. It returns
// the number of lanes consumed; the remainder (b.n mod 4) falls through
// to fuseMerged in fuseBatch. The kernel selects values by min/max, so
// on ±0 ties it may return either zero; as in fuseLanesK1, a lane whose
// lo or hi is zero is re-scored by fuseSorted, FuseWith's own scan,
// which defines those bits — but only when some base or lane endpoint
// is -0: with +0 the only zero, every zero pick has the scan's bits.
// Integer-grid campaigns fuse lanes to 0 often, and the runs measured
// carried no -0.
func (s *Sweeper) fuseLanesAVX2(b *Batch, need int, out []Interval, widths []float64, ok []bool) int {
	s.ensureKernelTables(need)
	nb := len(s.los)
	blos, bhis := &kernelDummyF64, &kernelDummyF64
	tlo, thi := &kernelDummyI64, &kernelDummyI64
	if nb > 0 {
		blos, bhis = &s.los[0], &s.his[0]
		tlo, thi = &s.thrLo[0], &s.thrHi[0]
	}
	var outLo, outHi [4]float64
	var bcov [16]int64
	g := 0
	for ; g+4 <= b.n; g += 4 {
		seg := g * 4 // stride is k+2 = 4
		fuseK2AVX2(blos, bhis, nb, tlo, thi, &b.los[seg], &b.his[seg], &outLo[0], &outHi[0], &bcov[0])
		for l := 0; l < 4; l++ {
			ls := seg + l*4
			iv, o := finalizeK2(outLo[l], outHi[l],
				bcov[l], bcov[4+l], bcov[8+l], bcov[12+l],
				b.los[ls+1], b.los[ls+2], b.his[ls+1], b.his[ls+2], need)
			if o && (iv.Lo == 0 || iv.Hi == 0) && (s.knegz || negZero(b.los[ls+1:ls+3]) || negZero(b.his[ls+1:ls+3])) {
				iv, o = s.fuseSorted(b.los[ls+1:ls+3], b.his[ls+1:ls+3], nb+2-need)
			}
			if out != nil {
				out[g+l] = iv
			} else {
				widths[g+l] = iv.Hi - iv.Lo
			}
			ok[g+l] = o
		}
	}
	return g
}

// ensureKernelTables (re)builds the per-(base, need) qualification
// thresholds the AVX2 kernel compares against: for each base endpoint
// threshold x = s.los[i] (resp. s.his[i]), the EXACT base-only coverage
// cov_base(x) = #{blos <= x} - #{bhis < x} is computed by one
// two-pointer pass over the sorted arrays (duplicate runs share their
// exact count), and stored as
//
//	thrLo[i] = need - cov_base(s.los[i]) - 1
//	thrHi[i] = need - cov_base(s.his[i]) - 1
//
// so a lane's candidate contribution d qualifies the threshold iff
// d > thr[i] (a single signed compare — the form VPCMPGTQ wants).
// Cached like the sentinel arrays, invalidated by Preload/Add, and
// additionally keyed on need, which varies per call.
func (s *Sweeper) ensureKernelTables(need int) {
	if s.kclean && s.kneed == need {
		return
	}
	nb := len(s.los)
	if cap(s.thrLo) < nb {
		s.thrLo = make([]int64, nb)
		s.thrHi = make([]int64, nb)
	}
	s.thrLo = s.thrLo[:nb]
	s.thrHi = s.thrHi[:nb]
	j := 0 // #{bhis < x}
	for i := 0; i < nb; {
		x := s.los[i]
		r := i
		for r+1 < nb && s.los[r+1] == x {
			r++
		}
		for j < nb && s.his[j] < x {
			j++
		}
		thr := int64(need - ((r + 1) - j) - 1)
		for ; i <= r; i++ {
			s.thrLo[i] = thr
		}
	}
	j = 0 // #{blos <= x}
	for i := 0; i < nb; {
		x := s.his[i]
		r := i
		for r+1 < nb && s.his[r+1] == x {
			r++
		}
		for j < nb && s.los[j] <= x {
			j++
		}
		// #{bhis < x} is i, the first index of this duplicate run.
		thr := int64(need - (j - i) - 1)
		for ; i <= r; i++ {
			s.thrHi[i] = thr
		}
	}
	s.kneed = need
	s.knegz = negZero(s.los) || negZero(s.his)
	s.kclean = true
}

// negZero reports whether xs holds a -0.
func negZero(xs []float64) bool {
	for _, x := range xs {
		if x == 0 && math.Signbit(x) {
			return true
		}
	}
	return false
}

// b2i64 returns 1 for true and 0 for false; the compiler lowers it to a
// flag materialization (SETcc), not a branch.
func b2i64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// finalizeK2 merges the candidate-endpoint thresholds into the running
// (lo, hi) selection the assembly pass produced and reports the lane
// result. The candidate's own contribution at each of its endpoints
// reduces by sortedness (clo0 <= clo1, chi0 <= chi1): e.g. at T = clo1
// both Lo endpoints count, and at T = chi0 no candidate Hi lies
// strictly below. A lane with no qualifying Lo endpoint has empty
// fusion (and then no Hi qualifies either); lo keeps +Inf in that case,
// which no finite endpoint can be, so it doubles as the ok flag.
func finalizeK2(lo, hi float64, bc0, bc1, bc2, bc3 int64, clo0, clo1, chi0, chi1 float64, need int) (Interval, bool) {
	n64 := int64(need)
	if bc0+1+b2i64(clo1 <= clo0)-b2i64(chi0 < clo0)-b2i64(chi1 < clo0) >= n64 && clo0 < lo {
		lo = clo0
	}
	if bc1+2-b2i64(chi0 < clo1)-b2i64(chi1 < clo1) >= n64 && clo1 < lo {
		lo = clo1
	}
	if bc2+b2i64(clo0 <= chi0)+b2i64(clo1 <= chi0) >= n64 && chi0 > hi {
		hi = chi0
	}
	if bc3+b2i64(clo0 <= chi1)+b2i64(clo1 <= chi1)-b2i64(chi0 < chi1) >= n64 && chi1 > hi {
		hi = chi1
	}
	if lo > math.MaxFloat64 { // lo == +Inf: nothing qualified
		return Interval{}, false
	}
	return Interval{Lo: lo, Hi: hi}, true
}
