package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dynamic"
	"repro/internal/hypergraph"
)

// encodeSnapshot appends the snapshot payload for st to buf:
//
//	uvarint epoch · u64 digest.Hi · u64 digest.Lo
//	uvarint slot count · per slot: uvarint gen · u8 alive ·
//	  (alive only) uvarint node count · (uvarint len + bytes)*
//	uvarint free count · per entry: uvarint slot
//
// The digest is the canonical (unkeyed) content fingerprint of the alive
// edges — a pure function of the schema, so an offline verifier recomputes
// it without the serving engine's digest key.
func encodeSnapshot(buf []byte, st *dynamic.State) []byte {
	d := stateDigest(st)
	buf = binary.AppendUvarint(buf, st.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, d.Hi)
	buf = binary.LittleEndian.AppendUint64(buf, d.Lo)
	buf = binary.AppendUvarint(buf, uint64(len(st.Slots)))
	for _, es := range st.Slots {
		buf = binary.AppendUvarint(buf, uint64(es.Gen))
		if !es.Alive {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(len(es.Nodes)))
		for _, n := range es.Nodes {
			buf = appendString(buf, n)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.FreeEdges)))
	for _, slot := range st.FreeEdges {
		buf = binary.AppendUvarint(buf, uint64(slot))
	}
	return buf
}

// decodeSnapshot parses a snapshot payload and cross-checks the embedded
// content digest against the decoded state — a guard against codec bugs,
// on top of the frame checksum's guard against damaged bytes.
func decodeSnapshot(payload []byte) (*dynamic.State, error) {
	st := &dynamic.State{}
	b := payload
	var err error
	if st.Epoch, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	if len(b) < 16 {
		return nil, fmt.Errorf("%w: truncated snapshot digest", ErrCorrupt)
	}
	want := hypergraph.Fingerprint128{
		Hi: binary.LittleEndian.Uint64(b),
		Lo: binary.LittleEndian.Uint64(b[8:]),
	}
	b = b[16:]
	var nslots uint64
	if nslots, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	if nslots > uint64(len(b)) { // each slot costs ≥ 1 byte
		return nil, fmt.Errorf("%w: slot count %d exceeds payload", ErrCorrupt, nslots)
	}
	st.Slots = make([]dynamic.EdgeState, nslots)
	for i := range st.Slots {
		var gen uint64
		if gen, b, err = readUvarint(b); err != nil {
			return nil, err
		}
		if len(b) == 0 {
			return nil, fmt.Errorf("%w: truncated slot %d", ErrCorrupt, i)
		}
		alive := b[0]
		b = b[1:]
		st.Slots[i].Gen = uint32(gen)
		if alive == 0 {
			continue
		}
		st.Slots[i].Alive = true
		var count uint64
		if count, b, err = readUvarint(b); err != nil {
			return nil, err
		}
		if count > uint64(len(b)) {
			return nil, fmt.Errorf("%w: node count %d exceeds payload", ErrCorrupt, count)
		}
		st.Slots[i].Nodes = make([]string, count)
		for j := range st.Slots[i].Nodes {
			if st.Slots[i].Nodes[j], b, err = readString(b); err != nil {
				return nil, err
			}
		}
	}
	var nfree uint64
	if nfree, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	if nfree > uint64(len(b)+1) {
		return nil, fmt.Errorf("%w: free count %d exceeds payload", ErrCorrupt, nfree)
	}
	st.FreeEdges = make([]int32, nfree)
	for i := range st.FreeEdges {
		var slot uint64
		if slot, b, err = readUvarint(b); err != nil {
			return nil, err
		}
		st.FreeEdges[i] = int32(slot)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after snapshot", ErrCorrupt, len(b))
	}
	if got := stateDigest(st); got != want {
		return nil, fmt.Errorf("%w: snapshot digest mismatch (got %016x%016x want %016x%016x)",
			ErrCorrupt, got.Hi, got.Lo, want.Hi, want.Lo)
	}
	return st, nil
}

// stateDigest folds the canonical (unkeyed) per-edge digests of a state's
// alive slots — the content fingerprint the snapshot embeds and recovery
// re-derives.
func stateDigest(st *dynamic.State) hypergraph.Fingerprint128 {
	var sum hypergraph.Fingerprint128
	for _, es := range st.Slots {
		if es.Alive {
			sum = sum.Add(hypergraph.EdgeDigestNames(es.Nodes))
		}
	}
	return sum
}

// writeSnapshotFile writes st to path atomically (see writeFileAtomic).
// Returns the snapshot's size in bytes.
func writeSnapshotFile(path string, st *dynamic.State) (int64, error) {
	buf := make([]byte, 0, 4096)
	buf = append(buf, snapMagic...)
	buf = appendFrame(buf, encodeSnapshot(nil, st))
	if err := writeFileAtomic(path, buf); err != nil {
		return 0, err
	}
	return int64(len(buf)), nil
}

// readSnapshotFile loads and validates a snapshot file, returning the state
// and the file's size in bytes. A missing file is reported as
// os.ErrNotExist (a fresh session, not an error).
func readSnapshotFile(path string) (*dynamic.State, int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(raw) < magicLen || string(raw[:magicLen]) != snapMagic {
		return nil, 0, fmt.Errorf("%w: bad snapshot magic in %s", ErrCorrupt, path)
	}
	payload, size, err := parseFrame(raw[magicLen:])
	if err != nil {
		return nil, 0, fmt.Errorf("%w: snapshot frame in %s does not parse", ErrCorrupt, path)
	}
	if magicLen+size != len(raw) {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes after snapshot frame in %s", ErrCorrupt, len(raw)-magicLen-size, path)
	}
	st, err := decodeSnapshot(payload)
	return st, int64(len(raw)), err
}

// writeFileAtomic replaces path with data: write path+".tmp", fsync,
// rename over path, fsync the directory. A crash at any point leaves either
// the old file or the new one, never a blend.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Best-effort: some filesystems refuse directory fsync, and the rename
// itself already ordered the data writes.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
