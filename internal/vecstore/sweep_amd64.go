package vecstore

// haveKernel says whether sweep4 runs the AVX kernel: CPUID reports AVX
// and OSXSAVE, and XGETBV says the OS saves the YMM registers. It is
// decided once, here, and nothing else selects the kernel.
var haveKernel = func() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuid1ECX(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xgetbv0()&6 == 6 // XMM and YMM state
}()

// sweep4 adds to acc[r], for the rows of acc's whole groups of four, the
// products of lanes with the rows' lane-major int8 lanes in q8, one lane
// after another in the order given, and returns how many rows it did:
// len(acc) rounded down to a multiple of four, or 0 without the kernel.
// Per row it adds the products sweepGo adds in the same order, so the
// sums have the same bits.
func sweep4(acc []float64, q8 []int8, stride int, lanes []lane) int {
	n := len(acc) &^ 3
	if !haveKernel || n == 0 || len(lanes) == 0 {
		return 0
	}
	for _, l := range lanes {
		_ = q8[int(l.i)*stride+n-1] // the kernel reads up to here, unchecked
	}
	sweepAVX(acc[:n], q8, stride, lanes)
	return n
}

// sweepAVX is sweep4's kernel. For each group of four rows and each lane
// it sign-extends the rows' four int8 lanes (VPMOVSXBD), converts them to
// float64 (VCVTDQ2PD), multiplies by the lane's value (VMULPD) and adds
// the products into the rows' accumulators (VADDPD). len(acc) is a
// multiple of four and every lane's column holds len(acc) rows.
//
//go:noescape
func sweepAVX(acc []float64, q8 []int8, stride int, lanes []lane)

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xgetbv0 returns the low half of XCR0; call it only when OSXSAVE is set.
func xgetbv0() uint32
