//go:build !amd64

package mem

// hasAVX2 is false off amd64: FillWords and introspect's Djb2Update run
// their scalar kernels alone.
const hasAVX2 = false

// fillWordsAVX2 exists off amd64 only so that the shared code compiles;
// hasAVX2 keeps anything from calling it.
func fillWordsAVX2([]byte, uint64) {
	panic("mem: the AVX2 fill kernel is amd64-only")
}
