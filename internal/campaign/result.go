package campaign

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"satin/internal/runner"
)

// The result file is the campaign's checkpoint and its final artifact in
// one: a header embedding the canonical campaign spec once (cells share it
// by construction, so it is stored exactly once, never per cell), followed
// by one CRC-guarded record per completed cell.
//
// While a campaign runs, records are appended in completion order — a
// killed process loses at most the record it was writing, and resume drops
// a truncated or corrupt tail and re-runs only those cells. When the last
// cell completes, Finalize rewrites the records sorted by cell index and
// appends a footer, atomically (temp file + rename): the finalized file is
// byte-identical for any worker count, kill point, or resume history.
//
// Layout (all integers little-endian):
//
//	header:  magic "SATINCAM" | u32 version | u32 specLen | spec bytes
//	record:  u8 tag (1=cell, 2=footer) | u32 payloadLen | payload | u32 CRC32(payload)
//	cell:    u32 index | u64 seed | u8 status (0=ok, 1=failed) |
//	         ok:     u16 nMetrics | nMetrics × (u16 nameLen | name | f64 bits)
//	         failed: u16 errLen | err
//	footer:  u32 total cell count (present only in finalized files)

const (
	resultMagic   = "SATINCAM"
	resultVersion = 1

	tagCell   = 1
	tagFooter = 2
)

// CellResult is one completed cell's outcome. Exactly one of Metrics and
// Err is meaningful.
type CellResult struct {
	Index   int
	Seed    uint64
	Metrics runner.Metrics
	// Err is the trial's error text; non-empty means the cell failed
	// deterministically (a failure is a result, not a retry candidate).
	Err string
}

// Failed reports whether the cell's trial returned an error.
func (r CellResult) Failed() bool { return r.Err != "" }

// ResultFile is an open campaign result file positioned for appends.
type ResultFile struct {
	f         *os.File
	path      string
	spec      []byte
	done      map[int]CellResult
	finalized bool
}

// CreateOrResume opens the result file for the campaign whose canonical
// spec is specBytes, creating it if absent. On an existing file the header
// must match byte-for-byte — a result file never silently absorbs cells
// from a different campaign — and a truncated or corrupt record tail
// (the kill losing a partial write) is discarded so appends continue from
// the last intact record.
func CreateOrResume(path string, specBytes []byte) (*ResultFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: result file: %w", err)
	}
	r := &ResultFile{f: f, path: path, spec: append([]byte(nil), specBytes...), done: map[int]CellResult{}}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: result file: %w", err)
	}
	if info.Size() == 0 {
		if _, err := f.Write(encodeHeader(specBytes)); err != nil {
			f.Close()
			return nil, fmt.Errorf("campaign: result file: writing header: %w", err)
		}
		return r, nil
	}
	if err := r.load(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// Done returns the completed cells keyed by index. The map is live — do not
// mutate it.
func (r *ResultFile) Done() map[int]CellResult { return r.done }

// Append checkpoints one completed cell. Safe to call from the completion
// path of concurrent workers only under the caller's lock.
func (r *ResultFile) Append(res CellResult) error {
	if r.finalized {
		return fmt.Errorf("campaign: result file %s is finalized", r.path)
	}
	if _, dup := r.done[res.Index]; dup {
		return fmt.Errorf("campaign: cell %d checkpointed twice", res.Index)
	}
	if _, err := r.f.Write(encodeRecord(tagCell, encodeCell(res))); err != nil {
		return fmt.Errorf("campaign: checkpointing cell %d: %w", res.Index, err)
	}
	r.done[res.Index] = res
	return nil
}

// Finalize rewrites the file with records sorted by cell index plus the
// footer, via a temp file and an atomic rename. It requires every cell
// 0..total-1 to be checkpointed. The finalized bytes are a pure function
// of the campaign and its cell results.
func (r *ResultFile) Finalize(total int) error {
	if r.finalized {
		return nil
	}
	if len(r.done) != total {
		return fmt.Errorf("campaign: finalize: %d of %d cells checkpointed", len(r.done), total)
	}
	ordered := make([]CellResult, 0, total)
	for i := 0; i < total; i++ {
		res, ok := r.done[i]
		if !ok {
			return fmt.Errorf("campaign: finalize: cell %d missing", i)
		}
		ordered = append(ordered, res)
	}
	if err := writeFinalized(r.path, r.spec, ordered); err != nil {
		return fmt.Errorf("campaign: finalize: %w", err)
	}
	r.f.Close()
	f, err := os.Open(r.path)
	if err != nil {
		return fmt.Errorf("campaign: finalize: reopening: %w", err)
	}
	r.f = f
	r.finalized = true
	return nil
}

// finalizedBytes renders the canonical finalized form: header, every cell
// record in index order, footer. It is THE byte layout of a finished
// campaign — Finalize and Merge both emit it, which is what makes a merged
// sharded run byte-identical to a single-process one.
func finalizedBytes(specBytes []byte, ordered []CellResult) []byte {
	var buf bytes.Buffer
	buf.Write(encodeHeader(specBytes))
	for _, res := range ordered {
		buf.Write(encodeRecord(tagCell, encodeCell(res)))
	}
	var footer bytes.Buffer
	writeU32(&footer, uint32(len(ordered)))
	buf.Write(encodeRecord(tagFooter, footer.Bytes()))
	return buf.Bytes()
}

// writeFinalized writes the finalized form atomically (temp file + rename).
func writeFinalized(path string, specBytes []byte, ordered []CellResult) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, finalizedBytes(specBytes, ordered), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Close releases the file handle.
func (r *ResultFile) Close() error { return r.f.Close() }

// ReadResults parses a result file and returns the embedded canonical
// campaign spec plus the completed cells in index order.
func ReadResults(path string) (specBytes []byte, results []CellResult, finalized bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, false, fmt.Errorf("campaign: reading results: %w", err)
	}
	return ReadFile(data)
}

// load parses an existing file into r, verifying the header against r.spec
// and truncating a corrupt or partial record tail.
func (r *ResultFile) load() error {
	data, err := io.ReadAll(r.f)
	if err != nil {
		return fmt.Errorf("campaign: reading result file: %w", err)
	}
	if _, err := r.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	specBytes, rest, err := decodeHeader(data)
	if err != nil {
		return err
	}
	if !bytes.Equal(specBytes, r.spec) {
		return fmt.Errorf("campaign: result file %s belongs to a different campaign (embedded spec differs; delete it or pick another -campaign-out)", r.path)
	}
	done, goodLen, finalized, err := decodeRecords(rest, false)
	if err != nil {
		return err
	}
	r.done = done
	r.finalized = finalized
	keep := int64(len(data) - len(rest) + goodLen)
	if keep < int64(len(data)) {
		if err := r.f.Truncate(keep); err != nil {
			return fmt.Errorf("campaign: dropping corrupt record tail: %w", err)
		}
	}
	if _, err := r.f.Seek(keep, io.SeekStart); err != nil {
		return err
	}
	return nil
}

// encodeHeader renders the file header.
func encodeHeader(specBytes []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(resultMagic)
	writeU32(&buf, resultVersion)
	writeU32(&buf, uint32(len(specBytes)))
	buf.Write(specBytes)
	return buf.Bytes()
}

// decodeHeader splits data into the embedded spec and the record region.
func decodeHeader(data []byte) (specBytes, rest []byte, err error) {
	if len(data) < len(resultMagic)+8 {
		return nil, nil, fmt.Errorf("campaign: result file too short for a header")
	}
	if string(data[:len(resultMagic)]) != resultMagic {
		return nil, nil, fmt.Errorf("campaign: not a campaign result file (bad magic)")
	}
	data = data[len(resultMagic):]
	version := binary.LittleEndian.Uint32(data)
	if version != resultVersion {
		return nil, nil, fmt.Errorf("campaign: result file version %d unsupported (this build reads version %d)", version, resultVersion)
	}
	specLen := binary.LittleEndian.Uint32(data[4:])
	data = data[8:]
	if uint32(len(data)) < specLen {
		return nil, nil, fmt.Errorf("campaign: result file truncated inside the embedded spec")
	}
	return data[:specLen], data[specLen:], nil
}

// decodeRecords parses the record region. A corrupt or truncated tail is an
// error in strict mode, and silently dropped otherwise (goodLen reports how
// many bytes were intact). A footer must be the last record.
func decodeRecords(data []byte, strict bool) (done map[int]CellResult, goodLen int, finalized bool, err error) {
	done = map[int]CellResult{}
	off := 0
	for off < len(data) {
		if finalized {
			return nil, 0, false, fmt.Errorf("campaign: records after the footer")
		}
		tag, payload, n, recErr := nextRecord(data[off:])
		if recErr != nil {
			if strict {
				return nil, 0, false, recErr
			}
			return done, off, false, nil
		}
		switch tag {
		case tagCell:
			res, cellErr := decodeCell(payload)
			if cellErr != nil {
				if strict {
					return nil, 0, false, cellErr
				}
				return done, off, false, nil
			}
			if _, dup := done[res.Index]; dup {
				return nil, 0, false, fmt.Errorf("campaign: result file checkpoints cell %d twice", res.Index)
			}
			done[res.Index] = res
		case tagFooter:
			if len(payload) != 4 {
				return nil, 0, false, fmt.Errorf("campaign: malformed footer")
			}
			if total := int(binary.LittleEndian.Uint32(payload)); total != len(done) {
				return nil, 0, false, fmt.Errorf("campaign: footer says %d cells, file has %d", total, len(done))
			}
			finalized = true
		default:
			if strict {
				return nil, 0, false, fmt.Errorf("campaign: unknown record tag %d", tag)
			}
			return done, off, false, nil
		}
		off += n
	}
	return done, off, finalized, nil
}

// nextRecord decodes one record at the start of data, returning its tag,
// payload, and total encoded length. Any truncation or CRC mismatch is an
// error — the caller decides whether that fails the read or just ends it.
func nextRecord(data []byte) (tag byte, payload []byte, n int, err error) {
	if len(data) < 5 {
		return 0, nil, 0, fmt.Errorf("campaign: truncated record header")
	}
	tag = data[0]
	payloadLen := binary.LittleEndian.Uint32(data[1:])
	n = 5 + int(payloadLen) + 4
	if len(data) < n {
		return 0, nil, 0, fmt.Errorf("campaign: truncated record payload")
	}
	payload = data[5 : 5+payloadLen]
	want := binary.LittleEndian.Uint32(data[5+payloadLen:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return 0, nil, 0, fmt.Errorf("campaign: record CRC mismatch")
	}
	return tag, payload, n, nil
}

// encodeRecord frames a payload with its tag, length, and CRC.
func encodeRecord(tag byte, payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteByte(tag)
	writeU32(&buf, uint32(len(payload)))
	buf.Write(payload)
	writeU32(&buf, crc32.ChecksumIEEE(payload))
	return buf.Bytes()
}

// encodeCell renders one cell result payload.
func encodeCell(res CellResult) []byte {
	var buf bytes.Buffer
	writeU32(&buf, uint32(res.Index))
	writeU64(&buf, res.Seed)
	if res.Failed() {
		buf.WriteByte(1)
		writeString(&buf, res.Err)
		return buf.Bytes()
	}
	buf.WriteByte(0)
	writeU16(&buf, uint16(len(res.Metrics)))
	for _, m := range res.Metrics {
		writeString(&buf, m.Name)
		writeU64(&buf, math.Float64bits(m.Value))
	}
	return buf.Bytes()
}

// decodeCell parses one cell result payload.
func decodeCell(payload []byte) (CellResult, error) {
	rd := &reader{data: payload}
	res := CellResult{Index: int(rd.u32()), Seed: rd.u64()}
	switch rd.u8() {
	case 1:
		res.Err = rd.str()
	case 0:
		n := int(rd.u16())
		for i := 0; i < n; i++ {
			name := rd.str()
			res.Metrics = append(res.Metrics, runner.Sample{Name: name, Value: math.Float64frombits(rd.u64())})
		}
	default:
		return CellResult{}, fmt.Errorf("campaign: cell %d: unknown status byte", res.Index)
	}
	if rd.err != nil || len(rd.data) != rd.off {
		return CellResult{}, fmt.Errorf("campaign: malformed cell record")
	}
	return res, nil
}

// reader is a bounds-checked little-endian cursor; the first overrun sets
// err and every later read returns zero.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.data) {
		r.err = fmt.Errorf("short read")
		return make([]byte, n)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() byte    { return r.take(1)[0] }
func (r *reader) u16() uint16 { return binary.LittleEndian.Uint16(r.take(2)) }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }
func (r *reader) str() string { return string(r.take(int(r.u16()))) }

func writeU16(buf *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	buf.Write(b[:])
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

func writeString(buf *bytes.Buffer, s string) {
	writeU16(buf, uint16(len(s)))
	buf.WriteString(s)
}

// DefaultResultPath derives the conventional result path for a campaign
// file: the campaign's path with its extension replaced by ".result".
func DefaultResultPath(campaignPath string) string {
	ext := filepath.Ext(campaignPath)
	return campaignPath[:len(campaignPath)-len(ext)] + ".result"
}
