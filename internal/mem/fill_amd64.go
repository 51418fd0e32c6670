package mem

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers. It is read once, at init; HasAVX2 serves it.
var hasAVX2 = cpuHasAVX2()

// cpuHasAVX2 asks CPUID and XGETBV: leaf 1 ECX must report OSXSAVE
// (bit 27) and AVX (bit 28), XCR0 must enable the XMM and YMM state
// (bits 1 and 2), and leaf 7 EBX must report AVX2 (bit 5).
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// fillWordsAVX2 writes len(dst)/64 whole 64-byte blocks of fill words
// into dst on a CPU with AVX2: word i is fillMix(z + (i+1)·fillGamma),
// little-endian. It runs splitmix64 in counter mode on two vectors of four
// counters, each stepped 8·fillGamma a block. It allocates nothing and
// cannot be preempted, so callers pass it at most a page at a time.
//
//go:noescape
func fillWordsAVX2(dst []byte, z uint64)

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xcr0 returns the low half of XCR0, the state the OS saves on a context
// switch (XGETBV with ECX = 0).
func xcr0() uint32
