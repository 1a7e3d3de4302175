// Package checkpoint bounds recovery over the write-ahead log: it
// periodically persists a consistent snapshot of the committed entity
// state together with the WAL sequence frontier it covers, so startup
// can load the newest valid checkpoint and replay only the log tail
// behind it — recovery time tracks the tail length, not total history,
// and redo logs can be compacted (sealed segments wholly covered by a
// retained checkpoint are deleted).
//
// The paper's deferred-update discipline (§4) is what makes a
// checkpoint this cheap: the global store only ever holds
// committed-or-unlocked values — uncommitted work lives in
// per-transaction copies — so a snapshot of the store is automatically
// transaction-consistent. No undo bookkeeping, no dirty-page table,
// no log anchoring beyond one frontier number. The only atomicity the
// snapshot needs is against a commit's multi-entity install sequence,
// which the engine's Quiesce hook provides for the microseconds two
// slice copies take.
//
// # File format
//
// A checkpoint file (ckpt-<frontier>.ckpt, frontier zero-padded so
// lexicographic order is numeric order) is:
//
//	magic    uint32  0x5052434b ("PRCK")
//	version  uint16  1
//	frontier uint64  WAL sequence frontier the snapshot covers
//	count    uint64  number of entries
//	entry*   nameLen uint16, name []byte, value int64
//	crc      uint32  IEEE CRC-32 of everything above
//
// Files are written crash-safely: temp file, fsync, rename, parent
// directory fsync — the same discipline as internal/wal. A reader
// therefore never sees a half-written checkpoint under a named path;
// the CRC is defense in depth (a torn or bit-rotted file is skipped
// and recovery falls back to the next older valid checkpoint, paying
// with a longer tail replay).
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"partialrollback/internal/wal"
)

const (
	magic   uint32 = 0x5052434b // "PRCK"
	version uint16 = 1
)

// ErrInvalid is wrapped by Load errors caused by framing, version, or
// checksum damage — a torn or corrupt checkpoint. Callers fall back to
// an older checkpoint (or full log replay) rather than failing.
var ErrInvalid = errors.New("checkpoint: invalid or torn checkpoint")

// Entry is one entity's checkpointed value.
type Entry struct {
	Name string
	Val  int64
}

// State is a decoded checkpoint: the committed entity values as of the
// moment every WAL record with sequence number <= Frontier was
// reflected in the store. Recovery loads Entries and then replays only
// log records with sequence numbers beyond Frontier.
type State struct {
	Frontier uint64
	Entries  []Entry
}

// Segment describes one sealed (rotated-away, immutable) WAL segment.
// Every record in it has sequence number <= MaxSeq, so the segment is
// garbage once a retained checkpoint's frontier reaches MaxSeq.
type Segment struct {
	Path   string
	MaxSeq uint64
	Bytes  int64
}

// FileName returns the checkpoint file name for a frontier. The
// frontier is zero-padded to 20 digits (the full uint64 range) so the
// lexicographic order of names is the numeric order of frontiers.
func FileName(frontier uint64) string {
	return fmt.Sprintf("ckpt-%020d.ckpt", frontier)
}

// ParseFileName extracts the frontier from a checkpoint file name (the
// base name, not a path).
func ParseFileName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".ckpt") {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".ckpt")
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Append encodes st onto dst and returns the extended slice.
func Append(dst []byte, st State) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, magic)
	dst = binary.LittleEndian.AppendUint16(dst, version)
	dst = binary.LittleEndian.AppendUint64(dst, st.Frontier)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(st.Entries)))
	for _, e := range st.Entries {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e.Name)))
		dst = append(dst, e.Name...)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Val))
	}
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// Decode parses a checkpoint image. Any damage — short file, bad
// magic/version, count mismatch, checksum failure — wraps ErrInvalid.
func Decode(data []byte) (State, error) {
	var st State
	if len(data) < 4+2+8+8+4 {
		return st, fmt.Errorf("%w: short file (%d bytes)", ErrInvalid, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return st, fmt.Errorf("%w: checksum mismatch", ErrInvalid)
	}
	if m := binary.LittleEndian.Uint32(body); m != magic {
		return st, fmt.Errorf("%w: bad magic %#x", ErrInvalid, m)
	}
	if v := binary.LittleEndian.Uint16(body[4:]); v != version {
		return st, fmt.Errorf("%w: unsupported version %d", ErrInvalid, v)
	}
	st.Frontier = binary.LittleEndian.Uint64(body[6:])
	count := binary.LittleEndian.Uint64(body[14:])
	off := 22
	st.Entries = make([]Entry, 0, count)
	for i := uint64(0); i < count; i++ {
		if off+2 > len(body) {
			return State{}, fmt.Errorf("%w: truncated entry %d", ErrInvalid, i)
		}
		nameLen := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+nameLen+8 > len(body) {
			return State{}, fmt.Errorf("%w: truncated entry %d", ErrInvalid, i)
		}
		name := string(body[off : off+nameLen])
		off += nameLen
		val := int64(binary.LittleEndian.Uint64(body[off:]))
		off += 8
		st.Entries = append(st.Entries, Entry{Name: name, Val: val})
	}
	if off != len(body) {
		return State{}, fmt.Errorf("%w: %d trailing bytes", ErrInvalid, len(body)-off)
	}
	return st, nil
}

// WriteOptions tunes Write.
type WriteOptions struct {
	// TempDelay sleeps between the temp file's fsync and the rename
	// that publishes it — widening the crash window in which a
	// checkpoint exists only as a .tmp file. Kill -9 test only
	// (internal/node); zero in production.
	TempDelay time.Duration
}

// Write persists st into dir crash-safely (temp + fsync + rename +
// parent-dir fsync) and returns the final path and encoded size. After
// a crash at any point, dir holds either the complete new checkpoint
// or no trace of it beyond a stale temp file (see RemoveTemps).
func Write(dir string, st State, opt WriteOptions) (string, int64, error) {
	buf := Append(nil, st)
	final := filepath.Join(dir, FileName(st.Frontier))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", 0, fmt.Errorf("checkpoint: write: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return "", 0, fmt.Errorf("checkpoint: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", 0, fmt.Errorf("checkpoint: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return "", 0, fmt.Errorf("checkpoint: close %s: %w", tmp, err)
	}
	if opt.TempDelay > 0 {
		time.Sleep(opt.TempDelay)
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", 0, fmt.Errorf("checkpoint: publish %s: %w", final, err)
	}
	if err := wal.SyncDir(dir); err != nil {
		return "", 0, err
	}
	return final, int64(len(buf)), nil
}

// Load reads and decodes one checkpoint file.
func Load(path string) (State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return State{}, fmt.Errorf("checkpoint: %w", err)
	}
	st, err := Decode(data)
	if err != nil {
		return State{}, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return st, nil
}

// File is one checkpoint file found in a directory.
type File struct {
	Path     string
	Frontier uint64
	Bytes    int64
}

// List returns the checkpoint files in dir, newest frontier first.
// Temp files and unparsable names are ignored.
func List(dir string) ([]File, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var out []File
	for _, p := range paths {
		fr, ok := ParseFileName(filepath.Base(p))
		if !ok {
			continue
		}
		var size int64
		if st, err := os.Stat(p); err == nil {
			size = st.Size()
		}
		out = append(out, File{Path: p, Frontier: fr, Bytes: size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Frontier > out[j].Frontier })
	return out, nil
}

// LoadLatest returns the newest checkpoint in dir that decodes
// cleanly, preferring an older valid checkpoint over a newer torn one
// (the fallback just replays a longer log tail). Invalid files are
// reported by base name so callers can log them loudly — with the
// crash-safe Write discipline they indicate storage damage, not an
// ordinary crash. A nil state with nil error means no checkpoint
// exists (full log replay).
func LoadLatest(dir string) (*State, string, []string, error) {
	files, err := List(dir)
	if err != nil {
		return nil, "", nil, err
	}
	var invalid []string
	for _, f := range files {
		st, err := Load(f.Path)
		if err != nil {
			invalid = append(invalid, filepath.Base(f.Path))
			continue
		}
		return &st, f.Path, invalid, nil
	}
	return nil, "", invalid, nil
}

// RemoveTemps deletes stale checkpoint temp files (a crash between a
// temp write and its rename leaves one behind). Called once at open.
func RemoveTemps(dir string) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt.tmp"))
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	n := 0
	for _, p := range paths {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return n, fmt.Errorf("checkpoint: remove %s: %w", p, err)
		}
		n++
	}
	return n, nil
}
