package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// oversized is a 20-byte file with a valid CRC whose prefix-spec length
// field declares 0xF0000000 bytes the file does not have.
func oversized() []byte {
	b := binary.LittleEndian.AppendUint32([]byte(Magic), Version)
	b = binary.LittleEndian.AppendUint32(b, 0xF0000000)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestDecodeChecksLengthsBeforeAllocating: Decode checks a length field
// against the bytes left in the file before it allocates anything for it, so
// a short file declaring a huge field fails cheaply.
func TestDecodeChecksLengthsBeforeAllocating(t *testing.T) {
	data := oversized()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(data)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("Decode = %v, want a malformed-body error", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("Decode allocated %d bytes rejecting a %d-byte file", n, len(data))
	}
}

// FuzzDecodeCheckpoint: Decode never panics, and whatever it accepts
// re-encodes to bytes that decode to an equal snapshot. Each input is also
// decoded with its last four bytes replaced by a valid CRC, so mutations
// reach the body parser instead of stopping at the checksum.
func FuzzDecodeCheckpoint(f *testing.F) {
	// sample's snapshot without its 4 KiB page: small inputs keep the
	// fuzzer's minimization short.
	small := sample()
	small.Pages = small.Pages[1:]
	seed, err := small.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(oversized())
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, recrc(append([]byte(nil), data...)))
		}
		for _, in := range inputs {
			snap, err := Decode(in)
			if err != nil {
				continue
			}
			enc, err := snap.Encode()
			if err != nil {
				t.Fatalf("re-encoding a decoded snapshot: %v", err)
			}
			again, err := Decode(enc)
			if err != nil {
				t.Fatalf("decoding a re-encoded snapshot: %v", err)
			}
			if !sameSnapshot(t, snap, again) {
				t.Fatalf("a decoded snapshot changed across encode and decode:\n%+v\n%+v", snap, again)
			}
		}
	})
}

// sameSnapshot compares two decoded snapshots. Their states are compared in
// their JSON form, which is what the format stores: decoding maps an empty
// JSON list and an absent omitempty field to different Go values.
func sameSnapshot(t *testing.T, a, b *Snapshot) bool {
	t.Helper()
	sa, err := json.Marshal(a.State)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := json.Marshal(b.State)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(sa, sb) && bytes.Equal(a.PrefixSpec, b.PrefixSpec) &&
		reflect.DeepEqual(a.Pages, b.Pages) && reflect.DeepEqual(a.Gens, b.Gens)
}
