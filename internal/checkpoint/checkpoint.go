// Package checkpoint defines the snapshot format for the copy-on-write
// checkpoint/fork mechanism (docs/CHECKPOINT.md): the serializable state of
// a scenario at a claimable virtual instant, and its versioned on-disk
// encoding.
//
// A snapshot is taken at a *claimable instant* — a virtual time at which
// every live pending event carries a claim (no secure-world payload in
// flight, every core online in the normal world). Event callbacks are
// closures and cannot be serialized, so the snapshot stores the Claims the
// engine lists instead (simclock.Engine.Claims): a component records its
// claim on an event when it schedules it (simclock.Engine.Arm), and the claim
// is enough for that component to rebuild the callback at restore time.
// Memory is captured copy-on-write: only pages whose write-generation counter
// differs from the post-boot baseline are stored, plus the full generation
// array (which the introspection's incremental hash cache validates against
// and must therefore be restored exactly).
//
// Decode reads files from disk (satin-sim -resume-from), so it trusts no
// length field: each is checked against the bytes left before anything is
// allocated for it.
//
// The assembly and restoration logic lives in the root satin package
// (Scenario.Checkpoint / RestoreSnapshot), which can see the components;
// this package owns the format.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"

	"satin/internal/attack"
	"satin/internal/core"
	"satin/internal/hw"
	"satin/internal/introspect"
	"satin/internal/mem"
	"satin/internal/obs"
	"satin/internal/simclock"
	"satin/internal/trace"
	"satin/internal/trustzone"
)

// State is the JSON-encoded portion of a snapshot: every component's pure
// state, the engine clock, the claims, and the run's observability record.
// Optional components are pointers; nil means the captured scenario did not
// install them, and the restored scenario must match.
type State struct {
	// Now is the claimable instant the snapshot was taken at; Dispatched is
	// the engine's event counter there.
	Now        simclock.Time `json:"now"`
	Dispatched uint64        `json:"dispatched"`

	Cores   []hw.CoreState          `json:"cores"`
	Monitor trustzone.MonitorState  `json:"monitor"`
	Checker introspect.CheckerState `json:"checker"`

	SATIN      *core.SATINState             `json:"satin,omitempty"`
	Baseline   *introspect.BaselineState    `json:"baseline,omitempty"`
	FastEvader *attack.FastEvaderCheckpoint `json:"fast_evader,omitempty"`
	Rootkit    *attack.RootkitCheckpoint    `json:"rootkit,omitempty"`
	Flood      *attack.FloodCheckpoint      `json:"flood,omitempty"`

	// Claims lists every live pending event, sorted by (when, seq) — the
	// order restore re-arms them in, which reproduces the firing order.
	Claims []simclock.Claim `json:"claims"`

	// Metrics is the raw registry snapshot at the instant (no end-of-run
	// gauge refresh). Timeline is the full bus publish history, replayed
	// into the restored scenario's bus so late-subscribed sinks and the
	// timeline see the prefix.
	Metrics  obs.Snapshot  `json:"metrics"`
	Timeline []trace.Event `json:"timeline"`
}

// Page is one dirty 4 KiB page (the last page of the region may be shorter).
type Page struct {
	Index int
	Data  []byte
}

// Snapshot is a complete checkpoint: the canonical prefix spec it was taken
// under, the component state, and the copy-on-write memory capture.
type Snapshot struct {
	// PrefixSpec is the canonical marshaled spec of the captured run. A
	// member spec resumes from this snapshot only if clearing its divergent
	// sections (faults, run horizon, exports) reproduces these bytes.
	PrefixSpec []byte
	State      State
	// Pages holds the pages whose generation differs from the post-boot
	// baseline; Gens is the full per-page generation array at the instant.
	Pages []Page
	Gens  []uint64

	// Boot is the boot state the captured scenario's kernel image was built
	// from, so members resumed in-process skip the kernel fill and the
	// golden hashing. It lives in memory only: Encode ignores it and Decode
	// leaves it nil, so members resumed from a file boot from the seed.
	Boot *mem.BootState
}

// On-disk layout (all integers little-endian):
//
//	magic "SATINCKP" | u32 version
//	u32 specLen | prefix spec bytes
//	u32 stateLen | State JSON
//	u32 pageCount | pageCount × (u32 index | u32 dataLen | data)
//	u32 gensCount | gensCount × u64
//	u32 CRC32-IEEE over everything before it
const (
	Magic   = "SATINCKP"
	Version = 1
)

// Encode renders the snapshot in the on-disk format.
func (s *Snapshot) Encode() ([]byte, error) {
	stateJSON, err := json.Marshal(s.State)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: marshaling state: %w", err)
	}
	var buf bytes.Buffer
	buf.WriteString(Magic)
	writeU32(&buf, Version)
	writeU32(&buf, uint32(len(s.PrefixSpec)))
	buf.Write(s.PrefixSpec)
	writeU32(&buf, uint32(len(stateJSON)))
	buf.Write(stateJSON)
	writeU32(&buf, uint32(len(s.Pages)))
	for _, p := range s.Pages {
		writeU32(&buf, uint32(p.Index))
		writeU32(&buf, uint32(len(p.Data)))
		buf.Write(p.Data)
	}
	writeU32(&buf, uint32(len(s.Gens)))
	for _, g := range s.Gens {
		writeU64(&buf, g)
	}
	writeU32(&buf, crc32.ChecksumIEEE(buf.Bytes()))
	return buf.Bytes(), nil
}

// Decode parses the on-disk format, verifying magic, version, and CRC.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(Magic)+8+4 {
		return nil, fmt.Errorf("checkpoint: file too short for a header")
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("checkpoint: not a checkpoint file (bad magic)")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if want, got := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); want != got {
		return nil, fmt.Errorf("checkpoint: CRC mismatch (file truncated or corrupt)")
	}
	rd := &reader{data: body, off: len(Magic)}
	if v := rd.u32(); v != Version {
		return nil, fmt.Errorf("checkpoint: file version %d unsupported (this build reads version %d)", v, Version)
	}
	snap := &Snapshot{}
	snap.PrefixSpec = append([]byte(nil), rd.take(int(rd.u32()))...)
	stateJSON := rd.take(int(rd.u32()))
	nPages := int(rd.u32())
	for i := 0; i < nPages && rd.err == nil; i++ {
		idx := int(rd.u32())
		pdata := append([]byte(nil), rd.take(int(rd.u32()))...)
		snap.Pages = append(snap.Pages, Page{Index: idx, Data: pdata})
	}
	nGens := int(rd.u32())
	for i := 0; i < nGens && rd.err == nil; i++ {
		snap.Gens = append(snap.Gens, rd.u64())
	}
	if rd.err != nil || rd.off != len(body) {
		return nil, fmt.Errorf("checkpoint: malformed file body")
	}
	if err := json.Unmarshal(stateJSON, &snap.State); err != nil {
		return nil, fmt.Errorf("checkpoint: unmarshaling state: %w", err)
	}
	return snap, nil
}

// WriteFile encodes the snapshot to path.
func WriteFile(path string, s *Snapshot) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("checkpoint: writing %s: %w", path, err)
	}
	return nil
}

// ReadFile reads and decodes the snapshot at path.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading %s: %w", path, err)
	}
	return Decode(data)
}

// reader is a bounds-checked little-endian cursor; the first overrun sets
// err, and every later read returns no bytes and zero integers. A length
// field is checked against the bytes left before anything is allocated for
// it.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.data)-r.off {
		r.err = fmt.Errorf("short read")
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}
