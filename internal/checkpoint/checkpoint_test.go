package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"satin/internal/mem"
	"satin/internal/simclock"
)

// recrc rewrites the trailing CRC so a mutation is seen by the parser
// itself, not caught by the checksum.
func recrc(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return b
}

func sample() *Snapshot {
	return &Snapshot{
		PrefixSpec: []byte(`{"version":1}`),
		State: State{
			Now:        simclock.Time(12345),
			Dispatched: 42,
			Claims:     []simclock.Claim{{Owner: "timer", Name: "core0", When: simclock.Time(20000), Seq: 7}},
		},
		Pages: []Page{{Index: 3, Data: bytes.Repeat([]byte{0xAB}, 4096)}, {Index: 9, Data: []byte{1, 2, 3}}},
		Gens:  []uint64{0, 0, 0, 5, 0, 0, 0, 0, 0, 2},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sample()
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(got.PrefixSpec, s.PrefixSpec) {
		t.Error("prefix spec did not round-trip")
	}
	if got.State.Now != s.State.Now || got.State.Dispatched != s.State.Dispatched {
		t.Errorf("clock did not round-trip: got %v/%d", got.State.Now, got.State.Dispatched)
	}
	if len(got.State.Claims) != 1 || got.State.Claims[0] != s.State.Claims[0] {
		t.Errorf("claims did not round-trip: %+v", got.State.Claims)
	}
	if len(got.Pages) != 2 || got.Pages[0].Index != 3 || !bytes.Equal(got.Pages[1].Data, []byte{1, 2, 3}) {
		t.Errorf("pages did not round-trip: %+v", got.Pages)
	}
	if len(got.Gens) != len(s.Gens) || got.Gens[3] != 5 {
		t.Errorf("gens did not round-trip: %v", got.Gens)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr string
	}{
		{"short file", func(b []byte) []byte { return b[:8] }, "too short"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b }, "CRC mismatch"},
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-10] }, "CRC mismatch"},
		{"future version", func(b []byte) []byte {
			b[8] = 99 // little-endian u32 version follows the 8-byte magic
			return recrc(b)
		}, "version 99 unsupported"},
		{"trailing garbage", func(b []byte) []byte {
			return recrc(append(b[:len(b)-4], 0, 0, 0, 0, 0, 0, 0, 0))
		}, "malformed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), data...))
			_, err := Decode(mutated)
			if err == nil {
				t.Fatal("Decode accepted a corrupt file")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestBootStateStaysInMemory: the boot state a snapshot carries in-process
// is not part of the SATINCKP format. Encode writes the same bytes with or
// without it, and Decode never produces one.
func TestBootStateStaysInMemory(t *testing.T) {
	want, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	im, err := mem.NewJunoImage(1)
	if err != nil {
		t.Fatal(err)
	}
	s := sample()
	s.Boot = im.Boot()
	got, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Encode output changed with a boot state attached (%d bytes vs %d)", len(got), len(want))
	}
	dec, err := Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Boot != nil {
		t.Error("Decode produced a boot state")
	}
}
