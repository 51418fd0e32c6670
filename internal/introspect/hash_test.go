package introspect

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDjb2KnownValues(t *testing.T) {
	// djb2 reference: h = 5381; h = h*33 + c.
	cases := []struct {
		in   string
		want uint64
	}{
		{"", 5381},
		{"a", 5381*33 + 'a'},
		{"ab", (5381*33+'a')*33 + 'b'},
	}
	for _, tc := range cases {
		if got := Djb2([]byte(tc.in)); got != tc.want {
			t.Errorf("Djb2(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestHashIncrementalEqualsWhole(t *testing.T) {
	// Property: hashing in arbitrary splits equals hashing whole — the
	// invariant the chunked checker relies on.
	f := func(data []byte, split uint8) bool {
		cut := 0
		if len(data) > 0 {
			cut = int(split) % (len(data) + 1)
		}
		h := Djb2Update(Djb2Seed, data[:cut])
		return Djb2Update(h, data[cut:]) == Djb2(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWordWideKernelsExhaustiveSmall proves the 8-byte kernel bit-identical
// to the byte-at-a-time reference on every length from 0 through 33 (both
// sides of the word boundary, plus tails of every residue) with varied
// contents and seeds, and on every possible single byte.
func TestWordWideKernelsExhaustiveSmall(t *testing.T) {
	seeds := []uint64{0, Djb2Seed, ^uint64(0), 0x0123456789abcdef}
	for n := 0; n <= 33; n++ {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*37 + 11)
		}
		for _, h := range seeds {
			if got, want := Djb2Update(h, data), djb2UpdateRef(h, data); got != want {
				t.Fatalf("Djb2Update(h=%#x, len=%d) = %#x, ref %#x", h, n, got, want)
			}
		}
	}
	for b := 0; b < 256; b++ {
		data := []byte{byte(b)}
		if got, want := Djb2Update(Djb2Seed, data), djb2UpdateRef(Djb2Seed, data); got != want {
			t.Fatalf("Djb2Update single byte %#x = %#x, ref %#x", b, got, want)
		}
	}
}

// TestWordWideKernelsProperty: same bit-identity over arbitrary data and
// seeds, including word-aligned interior slices.
func TestWordWideKernelsProperty(t *testing.T) {
	f := func(h uint64, data []byte) bool {
		return Djb2Update(h, data) == djb2UpdateRef(h, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPow33 checks pow33 against repeated multiplication, across the chunk
// sizes the checker folds and a little past them.
func TestPow33(t *testing.T) {
	want := uint64(1)
	for n := 0; n <= 3*DefaultChunkSize+1; n++ {
		if got := pow33(n); got != want {
			t.Fatalf("pow33(%d) = %#x, want %#x", n, got, want)
		}
		want *= 33
	}
}

// TestDjb2AffineSplit proves the split the boot terms rest on,
// Djb2Update(h, b) == h·33^len(b) + Djb2Update(0, b): exhaustively for every
// b of length 0 to 2 at several states, and for random data up to three
// chunks long.
func TestDjb2AffineSplit(t *testing.T) {
	states := []uint64{0, 1, Djb2Seed, ^uint64(0), 0x0123456789abcdef}
	split := func(h uint64, b []byte) bool {
		return Djb2Update(h, b) == h*pow33(len(b))+(djb2Term{}).Sum(b)
	}
	b := make([]byte, 2)
	for _, h := range states {
		if !split(h, nil) {
			t.Fatalf("h=%#x: the empty fold does not split", h)
		}
		for x := 0; x < 256; x++ {
			b[0] = byte(x)
			if !split(h, b[:1]) {
				t.Fatalf("h=%#x: %x does not split", h, b[:1])
			}
			for y := 0; y < 256; y++ {
				b[1] = byte(y)
				if !split(h, b) {
					t.Fatalf("h=%#x: %x does not split", h, b)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 3*DefaultChunkSize)
	rng.Read(data)
	for i := 0; i < 200; i++ {
		n := rng.Intn(len(data) + 1)
		off := rng.Intn(len(data) - n + 1)
		if h := rng.Uint64(); !split(h, data[off:off+n]) {
			t.Fatalf("h=%#x: %d bytes at %d do not split", h, n, off)
		}
	}
}

func TestHashDetectsSingleBitFlip(t *testing.T) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	orig := Djb2(data)
	data[2048] ^= 1
	if Djb2(data) == orig {
		t.Error("djb2 missed a single-bit flip")
	}
}

func TestHashKindStrings(t *testing.T) {
	if HashDjb2.String() != "djb2" {
		t.Error("hash names wrong")
	}
	if HashKind(9).String() == "" {
		t.Error("unknown kind must render")
	}
}
