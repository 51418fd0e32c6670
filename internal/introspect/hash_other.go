//go:build !amd64

package introspect

// djb2BlocksAVX2 exists off amd64 only so that the shared code compiles;
// mem.HasAVX2, false there, keeps anything from calling it.
func djb2BlocksAVX2([]byte) uint64 {
	panic("introspect: the AVX2 djb2 kernel is amd64-only")
}
