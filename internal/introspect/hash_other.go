//go:build !amd64

package introspect

// hasAVX2 is false off amd64: Djb2Update runs the lane kernel alone.
const hasAVX2 = false

// djb2BlocksAVX2 exists off amd64 only so that the shared code compiles;
// hasAVX2 keeps anything from calling it.
func djb2BlocksAVX2([]byte) uint64 {
	panic("introspect: the AVX2 djb2 kernel is amd64-only")
}
