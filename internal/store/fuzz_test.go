package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dynamic"
)

// FuzzWALRecord fuzzes the frame + record codec from both directions.
//
// Structured direction: any record built from the fuzzed fields must
// round-trip exactly through encode → frame → parse → decode, and any
// truncation of the framed bytes must be rejected as a torn frame — never
// decoded into a different record, never a panic.
//
// Raw direction: the fuzzed bytes themselves are parsed as a frame; the
// only requirement is "no panic, no false frame" (a parse that succeeds
// must hand back a payload whose checksum genuinely matches, which
// parseFrame guarantees by construction — so here success simply feeds
// decodeRecord, which must not panic either).
func FuzzWALRecord(f *testing.F) {
	f.Add(byte(1), uint64(1), uint64(0), "a\x00b", "x", "y", 0, byte(0))
	f.Add(byte(2), uint64(9), uint64(77), "", "", "", 3, byte(1))
	f.Add(byte(3), uint64(1<<40), uint64(0), "old", "new", "ü–名", 1, byte(7))
	f.Fuzz(func(t *testing.T, op byte, epoch, edge uint64, s1, s2, s3 string, cut int, flip byte) {
		rec := dynamic.JournalRecord{
			Op:    dynamic.JournalOp(1 + op%3),
			Epoch: epoch,
			Edge:  int(edge &^ (1 << 63)), // ids are non-negative
			Old:   s1,
			New:   s2,
		}
		if rec.Op == dynamic.JournalAddEdge {
			rec.Nodes = []string{s1, s2, s3}
		} else {
			rec.Nodes = nil
		}
		if rec.Op != dynamic.JournalRenameNode {
			rec.Old, rec.New = "", ""
		}
		if rec.Op == dynamic.JournalRenameNode {
			rec.Edge = 0
		}

		frame := appendFrame(nil, encodeRecord(nil, rec))
		payload, n, err := parseFrame(frame)
		if err != nil || n != len(frame) {
			t.Fatalf("framed record does not parse: n=%d err=%v", n, err)
		}
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round-trip mismatch: %+v != %+v", got, rec)
		}

		// Truncation at any interior point must read as a torn frame.
		if cut < 0 {
			cut = -cut
		}
		if len(frame) > 0 {
			trunc := frame[:cut%len(frame)]
			if _, _, err := parseFrame(trunc); err == nil {
				t.Fatalf("truncated frame (%d of %d bytes) parsed", len(trunc), len(frame))
			}
		}

		// A bit flip anywhere must be rejected (checksum or length), or —
		// if it parses — decode without panicking; it must never silently
		// equal the original while the bytes differ.
		mut := append([]byte(nil), frame...)
		mut[int(edge)%len(mut)] ^= 1 << (flip % 8)
		if p2, _, err := parseFrame(mut); err == nil {
			if r2, derr := decodeRecord(p2); derr == nil {
				if reflect.DeepEqual(r2, rec) && !bytes.Equal(mut, frame) {
					t.Fatal("flipped frame decoded to the original record")
				}
			}
		}
	})
}

// FuzzWALRecordRaw throws arbitrary bytes at the parse path: whatever the
// input, no panic, and a successful parse implies a checksum-consistent
// payload (re-framing it reproduces the parsed prefix). The same bytes behind
// a WAL magic go through the frame walker, which may report a torn tail only
// where the failing frame reaches end of file, must reject anything else as
// ErrCorrupt, and must hand over as many records as ScanWAL reads.
func FuzzWALRecordRaw(f *testing.F) {
	f.Add([]byte(walMagic))
	f.Add([]byte("\x04\x00\x00\x00\xde\xad\xbe\xefAAAA"))
	f.Add([]byte{})
	f.Add(appendFrame(appendFrame(nil, []byte{1, 1, 0, 1, 1, 'a'}), []byte{2, 2, 0}))
	path := filepath.Join(f.TempDir(), WALFile) // one file, rewritten per input
	f.Fuzz(func(t *testing.T, raw []byte) {
		if payload, n, err := parseFrame(raw); err == nil {
			if re := appendFrame(nil, payload); !bytes.Equal(re, raw[:n]) {
				t.Fatal("parsed frame does not re-frame to its own bytes")
			}
			_, _ = decodeRecord(payload) // must not panic
			_, _ = decodeSnapshot(payload)
		}

		wal := append([]byte(walMagic), raw...)
		records := 0
		end, torn, err := walkWAL("fuzz", wal, func(off, size int, _ dynamic.JournalRecord) error {
			if off+size > len(wal) {
				t.Fatalf("frame at %d of size %d runs past the %d-byte log", off, size, len(wal))
			}
			records++
			return nil
		})
		switch {
		case err != nil:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("walk error is not ErrCorrupt: %v", err)
			}
		case torn:
			rest := wal[end:]
			if _, _, perr := parseFrame(rest); perr == nil {
				t.Fatalf("torn tail reported at offset %d, where a frame parses", end)
			}
			if len(rest) >= frameHeaderLen && frameHeaderLen+uint64(binary.LittleEndian.Uint32(rest)) < uint64(len(rest)) {
				t.Fatalf("torn tail reported at offset %d for a frame that ends before EOF", end)
			}
		case end != len(wal):
			t.Fatalf("clean walk ended at %d of %d bytes", end, len(wal))
		}

		if err := os.WriteFile(path, wal, 0o644); err != nil {
			t.Fatal(err)
		}
		scanned := 0
		storn, serr := ScanWAL(path, func(dynamic.JournalRecord) error { scanned++; return nil })
		if scanned != records || storn != torn || (serr == nil) != (err == nil) {
			t.Fatalf("ScanWAL read %d records (torn=%v, err=%v); walker %d (torn=%v, err=%v)",
				scanned, storn, serr, records, torn, err)
		}
	})
}
