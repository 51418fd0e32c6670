package introspect

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers. It is read once, at init; when it is set, Djb2Update folds
// whole 128-byte blocks with djb2BlocksAVX2.
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

// djb2BlocksAVX2 returns the term Djb2Update(0, data) of data's whole
// 128-byte blocks, len(data)/128 of them, on a CPU with AVX2. Each block
// step reduces its sixteen words to their terms four at a time, in four
// vector accumulators that each take one 32-byte slot and step lane-wise
// as A = A·33^128 + t; the combine weights accumulator lane k of slot b
// by 33^(8(15−4b−k)) and sums the sixteen products. It allocates nothing
// and cannot be preempted, so callers pass it at most a page at a time.
//
//go:noescape
func djb2BlocksAVX2(data []byte) uint64

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xcr0 returns the low half of XCR0, the state the OS saves on a context
// switch (XGETBV with ECX = 0).
func xcr0() uint32
