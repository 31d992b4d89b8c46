// Package store is the durability subsystem behind workspace sessions: a
// per-session directory holding a snapshot plus a write-ahead edit log, so
// a `ws-N` session on the server — epoch, schema, per-component
// fingerprints, verdict — survives a process crash or drain.
//
// # Layout of a session directory
//
//	<dir>/
//	  wal.hgl       append-only edit log: 8-byte magic, then frames
//	  snapshot.hgs  compacted state: 8-byte magic, then one frame
//	  *.tmp         in-flight atomic writes; ignored (and removable)
//
// Every frame is [u32 payload length][u32 CRC-32C of payload][payload],
// little-endian. A WAL payload is one edit record (op, the epoch the edit
// produced, and its fields); the snapshot payload is a canonical dump of a
// dynamic.Workspace's persistable state (epoch, per-slot generations and
// node lists, free-slot stack) plus a 128-bit content digest cross-checking
// the dump itself.
//
// # Durability contract
//
// The session implements dynamic.Journal: the workspace offers every edit
// to Append *before* applying it, so an edit is acknowledged to the client
// exactly when its frame is on disk. Append failures abort the edit — the
// workspace stays at its pre-edit epoch — and a partial (torn) frame marks
// the session failed rather than risking a corrupt suffix: fail-stop now,
// repair on the next Open.
//
// # Recovery semantics
//
// Open replays snapshot-then-tail: restore the snapshot (verifying its CRC
// and content digest), then apply WAL records in order, skipping records
// the snapshot already covers (epoch ≤ snapshot epoch) and requiring the
// rest to be epoch-contiguous. Replayed AddEdges must reproduce the exact
// recorded edge id — id allocation is deterministic, so any disagreement is
// corruption, not drift. A frame that does not parse (short, oversized
// length word, or checksum mismatch) is a torn tail only when it is the
// last thing in the file — its header is cut short, or its declared extent
// reaches or passes end of file, the signature of a crash mid-append — and
// Open truncates it: recovery lands on the longest acknowledged prefix,
// never on made-up state. A damaged frame with bytes after its extent is
// ErrCorrupt: the edits behind it were acknowledged, so Open refuses the
// session and leaves its files as they are. Verify runs the same recovery
// and never writes.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/dynamic"
)

// ErrCorrupt reports a structurally damaged session file: a bad magic, a
// damaged frame with bytes after its extent, an undecodable record, an
// epoch gap, or a replayed edit that disagrees with the recorded outcome.
// (A damaged frame that is the last thing in the WAL is not corruption — it
// is a torn tail, repaired by truncation.)
var ErrCorrupt = errors.New("store: corrupt session data")

// ErrSessionFailed is the sticky error a failed session returns from every
// subsequent Append/Compact: after a torn or unrepairable write the session
// stops accepting edits instead of risking a corrupt suffix. Reopen the
// directory to repair and resume.
var ErrSessionFailed = errors.New("store: session failed")

const (
	walMagic  = "HGWAL01\n"
	snapMagic = "HGSNAP1\n"
	magicLen  = 8

	frameHeaderLen = 8 // u32 payload length + u32 CRC-32C

	// maxFramePayload bounds a single frame; larger lengths are treated as
	// corruption rather than allocated (a snapshot of a 10^6-edge schema is
	// well under this).
	maxFramePayload = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame wraps payload in a length+checksum header and appends the
// whole frame to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// parseFrame reads one frame from the head of b. It returns the payload
// and the total frame size. A frame that runs past b, declares an oversized
// payload or fails its checksum reports errTornFrame.
func parseFrame(b []byte) (payload []byte, size int, err error) {
	if len(b) < frameHeaderLen {
		return nil, 0, errTornFrame
	}
	n := binary.LittleEndian.Uint32(b)
	sum := binary.LittleEndian.Uint32(b[4:])
	if n > maxFramePayload {
		return nil, 0, errTornFrame
	}
	if len(b) < frameHeaderLen+int(n) {
		return nil, 0, errTornFrame
	}
	payload = b[frameHeaderLen : frameHeaderLen+int(n)]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, 0, errTornFrame
	}
	return payload, frameHeaderLen + int(n), nil
}

// errTornFrame marks a frame that does not parse cleanly. It is a torn write
// only when the frame is the last thing in the WAL; with bytes after its
// extent it is corruption (walkWAL applies the rule).
var errTornFrame = errors.New("store: torn or damaged frame")

// walkWAL walks a WAL image read from path (which only labels errors): it
// checks the magic, then decodes the frames in order, handing fn each one's
// offset, size and record. It returns end, the length of the parseable
// prefix, and whether a torn tail follows it.
//
// A frame that does not parse is a torn tail only when it is the last thing
// in raw: its header is cut short, or its declared extent reaches or passes
// end of file. A damaged frame with bytes after its extent is ErrCorrupt, as
// are a bad magic and an undecodable record. An image shorter than the
// magic can only be a crash during Create's header write: a torn empty log,
// whose end is magicLen. An error from fn stops the walk and is returned as
// is.
func walkWAL(path string, raw []byte, fn func(off, size int, rec dynamic.JournalRecord) error) (end int, torn bool, err error) {
	if len(raw) < magicLen {
		return magicLen, true, nil
	}
	if string(raw[:magicLen]) != walMagic {
		return 0, false, fmt.Errorf("%w: bad WAL magic in %s", ErrCorrupt, path)
	}
	off := magicLen
	for off < len(raw) {
		payload, n, perr := parseFrame(raw[off:])
		if perr != nil {
			rest := uint64(len(raw) - off)
			if rest < frameHeaderLen || frameHeaderLen+uint64(binary.LittleEndian.Uint32(raw[off:])) >= rest {
				return off, true, nil
			}
			return 0, false, fmt.Errorf("%w: %s at offset %d: damaged frame before the tail", ErrCorrupt, path, off)
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return 0, false, fmt.Errorf("%s at offset %d: %w", path, off, derr)
		}
		if err := fn(off, n, rec); err != nil {
			return 0, false, err
		}
		off += n
	}
	return off, false, nil
}

// encodeRecord appends rec's payload encoding to buf:
//
//	u8 op · uvarint epoch · op fields
//	  add:    uvarint edge id · uvarint node count · (uvarint len + bytes)*
//	  remove: uvarint edge id
//	  rename: (uvarint len + bytes) old · (uvarint len + bytes) new
func encodeRecord(buf []byte, rec dynamic.JournalRecord) []byte {
	buf = append(buf, byte(rec.Op))
	buf = binary.AppendUvarint(buf, rec.Epoch)
	switch rec.Op {
	case dynamic.JournalAddEdge:
		buf = binary.AppendUvarint(buf, uint64(rec.Edge))
		buf = binary.AppendUvarint(buf, uint64(len(rec.Nodes)))
		for _, n := range rec.Nodes {
			buf = appendString(buf, n)
		}
	case dynamic.JournalRemoveEdge:
		buf = binary.AppendUvarint(buf, uint64(rec.Edge))
	case dynamic.JournalRenameNode:
		buf = appendString(buf, rec.Old)
		buf = appendString(buf, rec.New)
	}
	return buf
}

// decodeRecord parses one record payload. Any structural defect — unknown
// op, truncated field, trailing garbage — is ErrCorrupt: the frame checksum
// already passed, so the bytes are what was written and the writer was
// wrong.
func decodeRecord(payload []byte) (dynamic.JournalRecord, error) {
	var rec dynamic.JournalRecord
	if len(payload) == 0 {
		return rec, fmt.Errorf("%w: empty record", ErrCorrupt)
	}
	rec.Op = dynamic.JournalOp(payload[0])
	b := payload[1:]
	epoch, n := binary.Uvarint(b)
	if n <= 0 {
		return rec, fmt.Errorf("%w: bad record epoch", ErrCorrupt)
	}
	rec.Epoch = epoch
	b = b[n:]
	var err error
	switch rec.Op {
	case dynamic.JournalAddEdge:
		var id, count uint64
		if id, b, err = readUvarint(b); err != nil {
			return rec, err
		}
		if count, b, err = readUvarint(b); err != nil {
			return rec, err
		}
		if count > uint64(len(b)) { // each name costs ≥ 1 byte
			return rec, fmt.Errorf("%w: node count %d exceeds payload", ErrCorrupt, count)
		}
		rec.Edge = int(id)
		rec.Nodes = make([]string, count)
		for i := range rec.Nodes {
			if rec.Nodes[i], b, err = readString(b); err != nil {
				return rec, err
			}
		}
	case dynamic.JournalRemoveEdge:
		var id uint64
		if id, b, err = readUvarint(b); err != nil {
			return rec, err
		}
		rec.Edge = int(id)
	case dynamic.JournalRenameNode:
		if rec.Old, b, err = readString(b); err != nil {
			return rec, err
		}
		if rec.New, b, err = readString(b); err != nil {
			return rec, err
		}
	default:
		return rec, fmt.Errorf("%w: unknown record op %d", ErrCorrupt, payload[0])
	}
	if len(b) != 0 {
		return rec, fmt.Errorf("%w: %d trailing bytes after record", ErrCorrupt, len(b))
	}
	return rec, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated varint", ErrCorrupt)
	}
	return v, b[n:], nil
}

func readString(b []byte) (string, []byte, error) {
	n, rest, err := readUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(rest)) {
		return "", nil, fmt.Errorf("%w: string length %d exceeds payload", ErrCorrupt, n)
	}
	return string(rest[:n]), rest[n:], nil
}
