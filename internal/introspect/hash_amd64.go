package introspect

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
