package mem

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestMMUPermissionProperties drives Protect/Unprotect/Write through
// arbitrary sequences and checks the permission model's invariants:
// protect→write faults, unprotect→write succeeds, and protection is
// idempotent.
func TestMMUPermissionProperties(t *testing.T) {
	im, err := NewJunoImage(3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMMU(im, nil) // no handler: protected writes error
	if err != nil {
		t.Fatal(err)
	}
	l := im.Layout()
	f := func(pageSel uint16, sizeSel uint16, doubleProtect bool) bool {
		page := uint64(pageSel) % uint64(l.PageCount()-1)
		addr := l.Base + page*PageSize
		size := int(sizeSel%8192) + 1
		if addr+uint64(size) > l.End() {
			size = int(l.End() - addr)
		}
		if err := m.Protect(addr, size); err != nil {
			return false
		}
		if doubleProtect {
			if err := m.Protect(addr, size); err != nil {
				return false // idempotence
			}
		}
		// Every byte in the range is now unwritable.
		if err := m.Write(addr, []byte{0xAA}); err == nil {
			return false
		}
		if err := m.Write(addr+uint64(size)-1, []byte{0xAA}); err == nil {
			return false
		}
		if err := m.Unprotect(addr, size); err != nil {
			return false
		}
		// And writable again.
		b, err := im.Mem().ByteAt(addr)
		if err != nil {
			return false
		}
		if err := m.Write(addr, []byte{b}); err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestMemoryWriteReadProperty: what you write is what you read back, for
// arbitrary in-bounds ranges.
func TestMemoryWriteReadProperty(t *testing.T) {
	m, err := NewMemory(0x4000, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := 0x4000 + uint64(off)
		if !m.Contains(addr, len(data)) {
			return true // out of range: nothing to check
		}
		if err := m.Write(addr, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := m.Read(addr, got); err != nil {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestGenerationInvalidationProperty is the contract the introspection
// layer's hash cache is built on: for arbitrary write sequences, GenSum over
// a range changes if and only if some write overlapped the range's pages —
// and equal GenSums guarantee byte-identical contents.
func TestGenerationInvalidationProperty(t *testing.T) {
	const pages = 8
	m, err := NewMemory(0x10000, pages*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// The observed range sits in the middle so writes can land on either side.
	obsAddr := uint64(0x10000 + 2*PageSize + 100)
	obsLen := 3*PageSize + 50
	snapshot := func() []byte {
		out := make([]byte, obsLen)
		if err := m.Read(obsAddr, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	prevSum := m.GenSum(obsAddr, obsLen)
	prevBytes := snapshot()
	f := func(off uint32, n uint16, fill byte) bool {
		addr := 0x10000 + uint64(off)%uint64(pages*PageSize-1)
		size := int(n)%4096 + 1
		if !m.Contains(addr, size) {
			size = int(0x10000 + uint64(pages*PageSize) - addr)
		}
		data := make([]byte, size)
		for i := range data {
			data[i] = fill ^ byte(i)
		}
		if err := m.Write(addr, data); err != nil {
			return false
		}
		// Did the write overlap any page of the observed range?
		obsFirst := (obsAddr - 0x10000) / PageSize
		obsLast := (obsAddr - 0x10000 + uint64(obsLen) - 1) / PageSize
		wFirst := (addr - 0x10000) / PageSize
		wLast := (addr - 0x10000 + uint64(size) - 1) / PageSize
		overlaps := wFirst <= obsLast && obsFirst <= wLast
		sum := m.GenSum(obsAddr, obsLen)
		if overlaps != (sum != prevSum) {
			return false
		}
		bytes := snapshot()
		if sum == prevSum {
			// Unchanged sum must mean unchanged bytes (the cache soundness
			// direction; the converse may not hold and need not).
			for i := range bytes {
				if bytes[i] != prevBytes[i] {
					return false
				}
			}
		}
		prevSum, prevBytes = sum, bytes
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCopyOnWriteMatchesFlatReference drives random Write, Read, Views and
// RestorePage sequences on two images built from one boot state, each
// checked against a flat byte-slice reference. The ranges cluster on page
// boundaries, the partial last page of the static kernel, the start of the
// module arena and the region's partial last page. Afterwards the boot
// bytes are unchanged, and BootSum answers for exactly the static ranges
// whose pages no write touched, with the reference's sum.
func TestCopyOnWriteMatchesFlatReference(t *testing.T) {
	layout := JunoKernelLayout()
	const seed = 21
	flat, _, _ := refImage(t, layout, seed)
	b := bootState(t, layout, seed)
	bootDigest := sha256.Sum256(bootBytes(b))

	type side struct {
		im      *Image
		ref     []byte
		touched map[int]bool // pages written since the image was built
	}
	sides := make([]*side, 2)
	for i := range sides {
		im, err := b.NewImage()
		if err != nil {
			t.Fatal(err)
		}
		sides[i] = &side{im: im, ref: slices.Clone(flat), touched: map[int]bool{}}
	}
	size := len(flat)
	base := layout.Base
	anchors := []int{
		0, PageSize, 7 * PageSize, int(layout.SyscallTableAddr - base),
		layout.TotalSize(), layout.TotalSize() / PageSize * PageSize,
		(layout.TotalSize()/PageSize + 1) * PageSize, size,
	}
	rng := rand.New(rand.NewSource(5))
	pick := func() (off, n int) {
		n = 1 + rng.Intn(2*PageSize+100)
		off = anchors[rng.Intn(len(anchors))] + rng.Intn(2*PageSize) - PageSize
		off = max(0, min(off, size-1))
		return off, min(n, size-off)
	}
	pages := func(off, n int) (first, last int) { return off / PageSize, (off + n - 1) / PageSize }
	var views [][]byte
	for step := 0; step < 3000; step++ {
		s := sides[rng.Intn(len(sides))]
		m := s.im.Mem()
		off, n := pick()
		addr := base + uint64(off)
		switch op := rng.Intn(4); op {
		case 0: // Write
			data := make([]byte, n)
			rng.Read(data)
			if err := m.Write(addr, data); err != nil {
				t.Fatal(err)
			}
			copy(s.ref[off:], data)
			first, last := pages(off, n)
			for p := first; p <= last; p++ {
				s.touched[p] = true
			}
		case 1: // Read
			got := make([]byte, n)
			if err := m.Read(addr, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, s.ref[off:off+n]) {
				t.Fatalf("step %d: Read(+%#x, %d) differs from the reference", step, off, n)
			}
		case 2: // Views
			var err error
			views, err = m.Views(addr, n, views[:0])
			if err != nil {
				t.Fatal(err)
			}
			if first, last := pages(off, n); len(views) != last-first+1 {
				t.Fatalf("step %d: %d views over pages %d..%d", step, len(views), first, last)
			}
			if got := bytes.Join(views, nil); !bytes.Equal(got, s.ref[off:off+n]) {
				t.Fatalf("step %d: Views(+%#x, %d) differ from the reference", step, off, n)
			}
		case 3: // RestorePage
			p := off / PageSize
			data := make([]byte, min(PageSize, size-p*PageSize))
			rng.Read(data)
			if err := m.RestorePage(p, data); err != nil {
				t.Fatal(err)
			}
			copy(s.ref[p*PageSize:], data)
			s.touched[p] = true
		}
	}

	if sha256.Sum256(bootBytes(b)) != bootDigest {
		t.Fatal("writes through the images reached the boot bytes")
	}
	for i, s := range sides {
		got := make([]byte, size)
		if err := s.im.Mem().Read(base, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, s.ref) {
			t.Errorf("image %d: live bytes differ from the reference", i)
		}
		answered, refused := 0, 0
		for k := 0; k < 400; k++ {
			off, n := pick()
			if k%2 == 1 {
				off = rng.Intn(layout.TotalSize())
				n = 1 + rng.Intn(2*PageSize)
			}
			n = min(n, layout.TotalSize()-off)
			if n <= 0 {
				continue
			}
			untouched := true
			first, last := pages(off, n)
			for p := first; p <= last; p++ {
				untouched = untouched && !s.touched[p]
			}
			sum, ok := s.im.Mem().BootSum(crcSum{}, base+uint64(off), n)
			if ok != untouched {
				t.Fatalf("image %d: BootSum(+%#x, %d) ok=%v, but untouched=%v", i, off, n, ok, untouched)
			}
			if ok {
				answered++
				if want := (crcSum{}).Sum(s.ref[off : off+n]); sum != want {
					t.Fatalf("image %d: BootSum(+%#x, %d) = %#x, want %#x", i, off, n, sum, want)
				}
			} else {
				refused++
			}
		}
		if answered == 0 || refused == 0 {
			t.Errorf("image %d: BootSum answered %d and refused %d ranges; the check needs both", i, answered, refused)
		}
	}
}
