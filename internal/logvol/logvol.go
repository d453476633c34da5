// Package logvol implements the Log Volume the paper's Persistent
// Filtering Subsystem is built on (section 4.2, citing the logger-based
// recovery subsystem of Bagchi et al.): multiple append-only log streams
// multiplexed onto a single file, with efficient retrieval of records by
// per-stream index number and a "chop" operation that discards a prefix of
// a stream.
//
// The volume is crash-consistent: records carry CRCs and recovery scans the
// file, dropping a torn tail. Durability is controlled by a SyncPolicy plus
// an explicit Sync for group commit.
package logvol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Volume instruments (process-wide; see internal/telemetry).
var (
	tAppendBytes = telemetry.Default().Counter("gryphon_logvol_append_bytes_total",
		"Bytes appended to log volumes (records plus framing).")
	tAppends = telemetry.Default().Counter("gryphon_logvol_appends_total",
		"Records appended to log volumes.")
	tFsyncs = telemetry.Default().Counter("gryphon_logvol_fsyncs_total",
		"fsync calls issued by log volumes.")
)

// SyncPolicy controls when appends reach stable storage.
type SyncPolicy uint8

// Sync policies.
const (
	// SyncExplicit leaves durability to explicit Sync calls (group
	// commit). This models the paper's "sync every N events" regime and
	// the battery-backed write cache of section 5.2.
	SyncExplicit SyncPolicy = iota + 1
	// SyncAlways fsyncs after every append; models per-write forced
	// logging.
	SyncAlways
	// SyncGroup makes every append durable before it is acknowledged, but
	// amortizes the fsync: a per-volume Committer batches concurrent
	// appends and issues one fsync for the whole batch (the group-commit
	// regime of the paper's logger substrate).
	SyncGroup
)

// Index identifies a record within one stream. Indexes are assigned
// monotonically starting at 1; 0 is the nil index ("no record"), which the
// PFS uses as the end-of-chain backpointer.
type Index uint64

// NilIndex is the "no record" sentinel.
const NilIndex Index = 0

// Errors the volume reports.
var (
	ErrNotFound     = errors.New("logvol: record not found")
	ErrChopped      = errors.New("logvol: record chopped")
	ErrClosed       = errors.New("logvol: volume closed")
	ErrCorrupt      = errors.New("logvol: corrupt record")
	ErrNoSuchStream = errors.New("logvol: no such stream")
)

const (
	recHeaderSize = 4 + 8 + 4 // streamID u32, index u64, payload len u32
	recTrailerLen = 4         // crc32
	metaStreamID  = 0
	metaCreate    = byte(1)
	metaChop      = byte(2)
)

// Options configures a volume.
type Options struct {
	// Sync selects the durability policy; zero value means SyncExplicit.
	Sync SyncPolicy
	// GroupMaxBytes caps the payload bytes batched into one group commit
	// (SyncGroup only); zero means 1 MiB.
	GroupMaxBytes int
	// GroupMaxDelay, when nonzero, makes the commit loop linger up to
	// this long after draining an empty-queue batch so concurrent
	// appenders can join it (SyncGroup only). Zero disables lingering;
	// the fsync duration itself is the natural batching window.
	GroupMaxDelay time.Duration
}

// Volume is a single-file log volume. All methods are safe for concurrent
// use.
type Volume struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	size    int64
	policy  SyncPolicy
	closed  bool
	streams map[string]*Stream
	byID    map[uint32]*Stream
	nextID  uint32

	// Group-commit state. seq counts completed writes (under mu); the
	// gate coalesces fsyncs so concurrent Sync callers — and the
	// committer's batches — share one. gen counts file swaps (Compact)
	// so an fsync racing a swap knows its captured descriptor is stale.
	seq       int64
	gen       int
	gate      Gate
	committer *Committer

	// Scratch buffers reused across appends/batches (under mu or owned
	// by the commit loop respectively).
	recBuf   []byte
	batchBuf []byte

	// stats for the paper's PFS-vs-event-log data-volume comparison.
	bytesAppended int64
	syncs         int64
	reads         atomic.Int64 // record and range reads (not under mu)

	// testSyncHook, when set, runs inside every file fsync (tests use it
	// to slow or block flushes deterministically).
	testSyncHook func()
}

// Stream is one log stream within a volume.
type Stream struct {
	vol     *Volume
	id      uint32
	name    string
	next    Index // next index to assign
	minLive Index // all indexes < minLive are chopped
	offsets map[Index]int64
}

// Open opens or creates the volume at path and recovers its streams.
func Open(path string, opts Options) (*Volume, error) {
	if opts.Sync == 0 {
		opts.Sync = SyncExplicit
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("logvol open: %w", err)
	}
	v := &Volume{
		f:       f,
		path:    path,
		policy:  opts.Sync,
		streams: make(map[string]*Stream),
		byID:    make(map[uint32]*Stream),
		nextID:  1,
	}
	if err := v.recover(); err != nil {
		f.Close() //nolint:errcheck,gosec // best-effort cleanup on failed open
		return nil, err
	}
	if opts.Sync == SyncGroup {
		v.committer = newCommitter(v, opts.GroupMaxBytes, opts.GroupMaxDelay)
	}
	return v, nil
}

// Policy reports the volume's durability policy.
func (v *Volume) Policy() SyncPolicy { return v.policy }

// recover scans the file rebuilding stream tables, stopping at the first
// torn or corrupt record (which it truncates away).
func (v *Volume) recover() error {
	info, err := v.f.Stat()
	if err != nil {
		return fmt.Errorf("logvol recover: %w", err)
	}
	fileSize := info.Size()
	var off int64
	hdr := make([]byte, recHeaderSize)
	for off+recHeaderSize+recTrailerLen <= fileSize {
		if _, err := v.f.ReadAt(hdr, off); err != nil {
			break
		}
		streamID := binary.BigEndian.Uint32(hdr)
		index := Index(binary.BigEndian.Uint64(hdr[4:]))
		plen := int64(binary.BigEndian.Uint32(hdr[12:]))
		total := recHeaderSize + plen + recTrailerLen
		if off+total > fileSize || plen > 1<<30 {
			break
		}
		body := make([]byte, plen+recTrailerLen)
		if _, err := v.f.ReadAt(body, off+recHeaderSize); err != nil {
			break
		}
		payload := body[:plen]
		wantCRC := binary.BigEndian.Uint32(body[plen:])
		crc := crc32.NewIEEE()
		crc.Write(hdr)     //nolint:errcheck,gosec // hash writes cannot fail
		crc.Write(payload) //nolint:errcheck,gosec // hash writes cannot fail
		if crc.Sum32() != wantCRC {
			break
		}
		if streamID == metaStreamID {
			v.applyMeta(payload)
		} else if s := v.byID[streamID]; s != nil {
			s.offsets[index] = off
			if index >= s.next {
				s.next = index + 1
			}
		}
		off += total
	}
	// Drop any torn tail so future appends start clean.
	if off < fileSize {
		if err := v.f.Truncate(off); err != nil {
			return fmt.Errorf("logvol recover truncate: %w", err)
		}
	}
	v.size = off
	// Re-apply chop floors (chop meta records may precede data records of
	// lower index written earlier; drop anything below minLive).
	for _, s := range v.byID {
		for idx := range s.offsets {
			if idx < s.minLive {
				delete(s.offsets, idx)
			}
		}
		if s.next < s.minLive {
			s.next = s.minLive
		}
	}
	return nil
}

func (v *Volume) applyMeta(payload []byte) {
	if len(payload) < 1 {
		return
	}
	switch payload[0] {
	case metaCreate:
		if len(payload) < 5 {
			return
		}
		id := binary.BigEndian.Uint32(payload[1:])
		name := string(payload[5:])
		s := &Stream{vol: v, id: id, name: name, next: 1, minLive: 1,
			offsets: make(map[Index]int64)}
		v.streams[name] = s
		v.byID[id] = s
		if id >= v.nextID {
			v.nextID = id + 1
		}
	case metaChop:
		if len(payload) < 13 {
			return
		}
		id := binary.BigEndian.Uint32(payload[1:])
		upTo := Index(binary.BigEndian.Uint64(payload[5:]))
		if s := v.byID[id]; s != nil && upTo+1 > s.minLive {
			s.minLive = upTo + 1
		}
	}
}

// Stream returns the named stream, creating it if needed.
func (v *Volume) Stream(name string) (*Stream, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil, ErrClosed
	}
	if s, ok := v.streams[name]; ok {
		return s, nil
	}
	id := v.nextID
	v.nextID++
	payload := make([]byte, 0, 5+len(name))
	payload = append(payload, metaCreate)
	payload = binary.BigEndian.AppendUint32(payload, id)
	payload = append(payload, name...)
	if _, err := v.appendLocked(metaStreamID, 0, payload); err != nil {
		return nil, err
	}
	s := &Stream{vol: v, id: id, name: name, next: 1, minLive: 1,
		offsets: make(map[Index]int64)}
	v.streams[name] = s
	v.byID[id] = s
	return s, nil
}

// LookupStream returns the named stream if it already exists.
func (v *Volume) LookupStream(name string) (*Stream, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil, ErrClosed
	}
	s, ok := v.streams[name]
	if !ok {
		return nil, ErrNoSuchStream
	}
	return s, nil
}

// StreamNames returns the names of all streams, sorted.
func (v *Volume) StreamNames() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, 0, len(v.streams))
	for name := range v.streams {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// maxRetainedBuf caps the scratch buffers kept across appends/batches.
const maxRetainedBuf = 1 << 20

// appendRecord encodes one framed record (header, payload, CRC) onto buf.
func appendRecord(buf []byte, streamID uint32, index Index, payload []byte) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, streamID)
	buf = binary.BigEndian.AppendUint64(buf, uint64(index))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	crc := crc32.NewIEEE()
	crc.Write(buf[start:]) //nolint:errcheck,gosec // hash writes cannot fail
	return binary.BigEndian.AppendUint32(buf, crc.Sum32())
}

func wrapErr(op string, err error) error {
	return fmt.Errorf("%s: %w", op, err)
}

// appendLocked writes one record; caller holds v.mu.
func (v *Volume) appendLocked(streamID uint32, index Index, payload []byte) (int64, error) {
	rec := appendRecord(v.recBuf[:0], streamID, index, payload)
	off := v.size
	if _, err := v.f.WriteAt(rec, off); err != nil {
		return 0, wrapErr("logvol append", err)
	}
	v.size += int64(len(rec))
	v.bytesAppended += int64(len(rec))
	v.seq++
	tAppendBytes.Add(int64(len(rec)))
	tAppends.Inc()
	if cap(rec) <= maxRetainedBuf {
		v.recBuf = rec[:0]
	}
	if v.policy == SyncAlways {
		if err := v.syncFileLocked(); err != nil {
			return 0, wrapErr("logvol sync", err)
		}
		v.gate.Cover(v.seq)
	}
	return off, nil
}

// syncFileLocked fsyncs the current file; caller holds v.mu.
func (v *Volume) syncFileLocked() error {
	if hook := v.testSyncHook; hook != nil {
		hook()
	}
	if err := v.f.Sync(); err != nil {
		return err
	}
	v.syncs++
	tFsyncs.Inc()
	return nil
}

// curSeq reports the current write sequence (gate "top" callback).
func (v *Volume) curSeq() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.seq
}

// fsyncFile performs one fsync of the volume file for the gate. The
// descriptor and generation are captured under v.mu but the fsync itself
// runs unlocked so appends keep flowing while the disk flushes. If the file
// was swapped mid-flight (Compact), the swap already synced the replacement
// file, so a stale-generation flush error is not a durability failure.
func (v *Volume) fsyncFile() error {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return ErrClosed
	}
	f, gen, hook := v.f, v.gen, v.testSyncHook
	v.mu.Unlock()

	if hook != nil {
		hook()
	}
	err := f.Sync()

	v.mu.Lock()
	defer v.mu.Unlock()
	if err != nil {
		if v.closed || v.gen != gen {
			// The file was closed or replaced under us; the data either
			// reached disk via the close/compact sync or the volume is
			// gone entirely.
			if v.closed {
				return ErrClosed
			}
			return nil
		}
		return err
	}
	v.syncs++
	tFsyncs.Inc()
	return nil
}

// Sync forces all appended records to stable storage. Concurrent callers
// share fsyncs through the volume gate (group commit): a caller whose
// writes are already covered by an in-flight or completed flush returns
// without touching the disk.
func (v *Volume) Sync() error {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return ErrClosed
	}
	if c := v.committer; c != nil {
		// Barrier through the commit queue so appends enqueued before
		// this call are covered too.
		v.mu.Unlock()
		_, err := c.enqueue(nil, nil).Result()
		if err != nil {
			return wrapErr("logvol sync", err)
		}
		return nil
	}
	seq := v.seq
	v.mu.Unlock()
	issued, err := v.gate.Sync(seq, v.curSeq, v.fsyncFile)
	if err != nil {
		return wrapErr("logvol sync", err)
	}
	if !issued {
		tSyncsAmortized.Inc()
	}
	return nil
}

// BytesAppended reports the total bytes written since open, for the PFS
// data-volume comparisons of section 5.1.2.
func (v *Volume) BytesAppended() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.bytesAppended
}

// Syncs reports the number of fsync calls issued since open.
func (v *Volume) Syncs() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.syncs
}

// Reads reports the number of record and range reads that went to the
// volume file since open (tests pin paths that must not read).
func (v *Volume) Reads() int64 { return v.reads.Load() }

// Ping reports whether the volume is open and serviceable; admin health
// checks call it.
func (v *Volume) Ping() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ErrClosed
	}
	return nil
}

// Size reports the current file size in bytes.
func (v *Volume) Size() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.size
}

// Close flushes any queued group commits, syncs, and closes the volume.
func (v *Volume) Close() error {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return nil
	}
	c := v.committer
	v.committer = nil
	v.mu.Unlock()
	if c != nil {
		// Drain the commit queue before marking closed so every queued
		// append either lands durably or resolves with its write error.
		c.shutdown()
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil
	}
	v.closed = true
	if err := v.f.Sync(); err != nil {
		v.f.Close() //nolint:errcheck,gosec // already failing
		return fmt.Errorf("logvol close sync: %w", err)
	}
	return v.f.Close()
}

// Append adds a record to the stream and returns its index. On a SyncGroup
// volume the call is durable on return: it rides the group-commit batch and
// blocks until the covering fsync completes.
func (s *Stream) Append(payload []byte) (Index, error) {
	v := s.vol
	v.mu.Lock()
	if c := v.committer; c != nil && !v.closed {
		v.mu.Unlock()
		return c.enqueue(s, payload).Result()
	}
	defer v.mu.Unlock()
	if v.closed {
		return NilIndex, ErrClosed
	}
	idx := s.next
	off, err := v.appendLocked(s.id, idx, payload)
	if err != nil {
		return NilIndex, err
	}
	s.next++
	s.offsets[idx] = off
	return idx, nil
}

// AppendAsync adds a record without blocking on durability, returning a
// Ticket that resolves once the record is on stable storage (its index) or
// failed (error). On a SyncGroup volume the append joins the group-commit
// batch; on other policies it degrades to a synchronous Append and returns
// an already-resolved ticket. The payload must not be modified until the
// ticket resolves.
func (s *Stream) AppendAsync(payload []byte) *Ticket {
	v := s.vol
	v.mu.Lock()
	if c := v.committer; c != nil && !v.closed {
		v.mu.Unlock()
		return c.enqueue(s, payload)
	}
	v.mu.Unlock()
	idx, err := s.Append(payload)
	return completedTicket(idx, err)
}

// Read returns the payload of the record at idx.
func (s *Stream) Read(idx Index) ([]byte, error) {
	return s.ReadInto(idx, nil)
}

// ReadInto is Read with a caller-supplied scratch buffer: the returned
// payload aliases buf (grown as needed), so hot read loops can reuse one
// buffer instead of allocating header+body per record. The payload is only
// valid until the next use of buf; callers that retain it must copy.
func (s *Stream) ReadInto(idx Index, buf []byte) ([]byte, error) {
	v := s.vol
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return nil, ErrClosed
	}
	if idx < s.minLive {
		v.mu.Unlock()
		return nil, fmt.Errorf("%w: stream %q index %d", ErrChopped, s.name, idx)
	}
	off, ok := s.offsets[idx]
	v.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: stream %q index %d", ErrNotFound, s.name, idx)
	}
	return s.readAtInto(off, idx, buf)
}

// readAtInto reads and validates the record at off into buf (no lock held;
// the file region is immutable once written). The returned payload aliases
// buf when it fits.
func (s *Stream) readAtInto(off int64, wantIdx Index, buf []byte) ([]byte, error) {
	if cap(buf) < recHeaderSize {
		buf = make([]byte, recHeaderSize, recHeaderSize+recTrailerLen+512)
	}
	s.vol.reads.Add(1)
	hdr := buf[:recHeaderSize]
	if _, err := s.vol.f.ReadAt(hdr, off); err != nil {
		return nil, fmt.Errorf("logvol read header: %w", err)
	}
	streamID := binary.BigEndian.Uint32(hdr)
	index := Index(binary.BigEndian.Uint64(hdr[4:]))
	plen := int(binary.BigEndian.Uint32(hdr[12:]))
	if streamID != s.id || index != wantIdx {
		return nil, fmt.Errorf("%w: stream %q index %d points at (%d,%d)",
			ErrCorrupt, s.name, wantIdx, streamID, index)
	}
	total := recHeaderSize + plen + recTrailerLen
	if cap(buf) < total {
		grown := make([]byte, total)
		copy(grown, hdr)
		buf = grown
	}
	buf = buf[:total]
	body := buf[recHeaderSize:]
	if _, err := s.vol.f.ReadAt(body, off+recHeaderSize); err != nil {
		return nil, fmt.Errorf("logvol read body: %w", err)
	}
	payload := body[:plen]
	wantCRC := binary.BigEndian.Uint32(body[plen:])
	if crc32.ChecksumIEEE(buf[:recHeaderSize+plen]) != wantCRC {
		return nil, fmt.Errorf("%w: stream %q index %d bad crc", ErrCorrupt, s.name, wantIdx)
	}
	return payload, nil
}

// ReadRange performs one vectored read of the file region starting at the
// record with index from, then walks the multiplexed records it contains in
// file order, invoking visit for every valid record of THIS stream with
// index >= from. Records of other streams (and the meta stream) inside the
// window are skipped. visit returning false stops the scan; payloads alias
// buf and are only valid inside the callback.
//
// The scan is opportunistic: it stops silently at the first record that
// does not fit the window or fails validation (a window cut mid-record, a
// torn tail). Callers needing a specific record must fall back to ReadInto,
// which reports real corruption as an error. Catchup batch reads use this
// to fill a decode cache with one syscall instead of one read per record.
func (s *Stream) ReadRange(from Index, buf []byte, visit func(idx Index, payload []byte) bool) error {
	v := s.vol
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return ErrClosed
	}
	if from < s.minLive {
		v.mu.Unlock()
		return fmt.Errorf("%w: stream %q index %d", ErrChopped, s.name, from)
	}
	off, ok := s.offsets[from]
	end := v.size
	id := s.id
	v.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: stream %q index %d", ErrNotFound, s.name, from)
	}
	if avail := end - off; int64(len(buf)) > avail {
		buf = buf[:avail]
	}
	v.reads.Add(1)
	n, err := s.vol.f.ReadAt(buf, off)
	if n <= 0 && err != nil {
		return fmt.Errorf("logvol read range: %w", err)
	}
	buf = buf[:n]
	for pos := 0; pos+recHeaderSize+recTrailerLen <= len(buf); {
		streamID := binary.BigEndian.Uint32(buf[pos:])
		index := Index(binary.BigEndian.Uint64(buf[pos+4:]))
		plen := int(binary.BigEndian.Uint32(buf[pos+12:]))
		total := recHeaderSize + plen + recTrailerLen
		if plen < 0 || pos+total > len(buf) {
			break // record extends past the window (or torn tail)
		}
		payload := buf[pos+recHeaderSize : pos+recHeaderSize+plen]
		wantCRC := binary.BigEndian.Uint32(buf[pos+recHeaderSize+plen:])
		if crc32.ChecksumIEEE(buf[pos:pos+recHeaderSize+plen]) != wantCRC {
			break // torn/corrupt record: stop the opportunistic scan
		}
		if streamID == id && index >= from {
			if !visit(index, payload) {
				return nil
			}
		}
		pos += total
	}
	return nil
}

// Chop discards every record of the stream with index <= upTo. Reads of
// chopped records return ErrChopped. The space is reclaimed by Compact.
func (s *Stream) Chop(upTo Index) error {
	v := s.vol
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ErrClosed
	}
	if upTo+1 <= s.minLive {
		return nil
	}
	payload := make([]byte, 0, 13)
	payload = append(payload, metaChop)
	payload = binary.BigEndian.AppendUint32(payload, s.id)
	payload = binary.BigEndian.AppendUint64(payload, uint64(upTo))
	if _, err := v.appendLocked(metaStreamID, 0, payload); err != nil {
		return err
	}
	s.minLive = upTo + 1
	if s.next < s.minLive {
		s.next = s.minLive
	}
	for idx := range s.offsets {
		if idx < s.minLive {
			delete(s.offsets, idx)
		}
	}
	return nil
}

// LastIndex returns the highest assigned index, or NilIndex if the stream
// has no live records.
func (s *Stream) LastIndex() Index {
	v := s.vol
	v.mu.Lock()
	defer v.mu.Unlock()
	if s.next <= s.minLive {
		return NilIndex
	}
	return s.next - 1
}

// FirstLiveIndex returns the lowest unchopped index, or NilIndex if none.
func (s *Stream) FirstLiveIndex() Index {
	v := s.vol
	v.mu.Lock()
	defer v.mu.Unlock()
	if s.next <= s.minLive {
		return NilIndex
	}
	return s.minLive
}

// Len reports the number of live records.
func (s *Stream) Len() int {
	v := s.vol
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(s.offsets)
}

// Name reports the stream's name.
func (s *Stream) Name() string { return s.name }

// ForEach calls fn for every live record in index order; fn returning
// false stops the scan early.
func (s *Stream) ForEach(fn func(idx Index, payload []byte) bool) error {
	v := s.vol
	v.mu.Lock()
	lo, hi := s.minLive, s.next
	v.mu.Unlock()
	for idx := lo; idx < hi; idx++ {
		payload, err := s.Read(idx)
		if errors.Is(err, ErrNotFound) || errors.Is(err, ErrChopped) {
			continue
		}
		if err != nil {
			return err
		}
		if !fn(idx, payload) {
			return nil
		}
	}
	return nil
}

// Compact rewrites the volume file keeping only live records, reclaiming
// space from chopped prefixes. It blocks all other operations while
// running.
func (v *Volume) Compact() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ErrClosed
	}
	tmpPath := v.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("logvol compact: %w", err)
	}
	defer os.Remove(tmpPath) //nolint:errcheck // best-effort cleanup

	old := v.f
	oldSize, oldBytes, oldSyncs := v.size, v.bytesAppended, v.syncs
	v.f, v.size = tmp, 0

	restore := func() {
		v.f, v.size, v.bytesAppended, v.syncs = old, oldSize, oldBytes, oldSyncs
		tmp.Close() //nolint:errcheck,gosec // best-effort cleanup
	}

	// Rewrite stream creation records and live data.
	type liveRec struct {
		s   *Stream
		idx Index
		off int64
	}
	var live []liveRec
	names := make([]string, 0, len(v.streams))
	for name := range v.streams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := v.streams[name]
		payload := make([]byte, 0, 5+len(name))
		payload = append(payload, metaCreate)
		payload = binary.BigEndian.AppendUint32(payload, s.id)
		payload = append(payload, name...)
		if _, err := v.appendLocked(metaStreamID, 0, payload); err != nil {
			restore()
			return err
		}
		if s.minLive > 1 {
			chop := make([]byte, 0, 13)
			chop = append(chop, metaChop)
			chop = binary.BigEndian.AppendUint32(chop, s.id)
			chop = binary.BigEndian.AppendUint64(chop, uint64(s.minLive-1))
			if _, err := v.appendLocked(metaStreamID, 0, chop); err != nil {
				restore()
				return err
			}
		}
		for idx, off := range s.offsets {
			live = append(live, liveRec{s: s, idx: idx, off: off})
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].off < live[j].off })
	newOffsets := make(map[*Stream]map[Index]int64, len(v.streams))
	for _, lr := range live {
		// Read from the old file, write to the new.
		v.f = old
		payload, err := lr.s.readAtInto(lr.off, lr.idx, nil)
		v.f = tmp
		if err != nil {
			restore()
			return err
		}
		newOff, err := v.appendLocked(lr.s.id, lr.idx, payload)
		if err != nil {
			restore()
			return err
		}
		if newOffsets[lr.s] == nil {
			newOffsets[lr.s] = make(map[Index]int64)
		}
		newOffsets[lr.s][lr.idx] = newOff
	}
	if err := tmp.Sync(); err != nil {
		restore()
		return fmt.Errorf("logvol compact sync: %w", err)
	}
	if err := os.Rename(tmpPath, v.path); err != nil {
		restore()
		return fmt.Errorf("logvol compact rename: %w", err)
	}
	old.Close() //nolint:errcheck,gosec // replaced file
	// The replacement file was fully synced above: bump the generation so
	// an in-flight gate fsync of the old descriptor knows it is stale, and
	// mark everything written so far as covered.
	v.gen++
	v.seq++
	v.gate.Cover(v.seq)
	for s, m := range newOffsets {
		s.offsets = m
	}
	for _, s := range v.streams {
		if newOffsets[s] == nil {
			s.offsets = make(map[Index]int64)
		}
	}
	return nil
}

var _ io.Closer = (*Volume)(nil)
