package resultcache

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// entryMagic heads every on-disk entry ("PSRC" + format version 1).
var entryMagic = [8]byte{'P', 'S', 'R', 'C', 0, 0, 0, 1}

// ErrEntryCorrupt marks an on-disk entry that failed verification: bad
// magic, torn length, or a payload whose digest does not match the stored
// one. The disk tier converts it into a miss and removes the entry; it is
// exported so tests (and operators reading logs) can identify the cause.
var ErrEntryCorrupt = errors.New("resultcache: corrupt cache entry")

// Disk is the on-disk tier. Entries live under dir, fanned out by the first
// key byte (dir/ab/<hex>), one file per key:
//
//	offset size  field
//	0      8     magic + format version
//	8      32    SHA-256 of payload
//	40     n     payload
//
// Writes go through a temp file in the same directory plus rename, with the
// temp file fsynced before the rename and the directory fsynced after it,
// so a crash or power loss mid-write leaves no half-entry under a valid
// name and cannot publish a name whose bytes never reached the platter;
// reads verify the stored digest over the payload, so silent corruption
// becomes a miss, not a served result.
type Disk struct {
	dir string
}

// NewDisk opens (creating if needed) an on-disk store rooted at dir.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: opening store: %w", err)
	}
	return &Disk{dir: dir}, nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// path returns the entry file for a key.
func (d *Disk) path(k Key) string {
	hex := k.String()
	return filepath.Join(d.dir, hex[:2], hex)
}

// Get loads and verifies the entry stored under k. ok reports a verified
// hit; corrupt reports that an entry existed but failed verification (it is
// removed so the slot heals on the next Put).
func (d *Disk) Get(k Key) (payload []byte, ok, corrupt bool) {
	f, err := os.Open(d.path(k))
	if err != nil {
		return nil, false, false
	}
	defer f.Close()
	payload, err = readEntry(f)
	if err != nil {
		// Failed verification (or a read error indistinguishable from it):
		// evict the entry so it re-simulates and re-stores cleanly.
		os.Remove(d.path(k))
		return nil, false, true
	}
	return payload, true, false
}

// Put atomically stores payload under k.
func (d *Disk) Put(k Key, payload []byte) error {
	path := d.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("resultcache: storing %s: %w", k, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		return fmt.Errorf("resultcache: storing %s: %w", k, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	sum := sha256.Sum256(payload)
	if _, err := tmp.Write(entryMagic[:]); err == nil {
		_, err = tmp.Write(sum[:])
		if err == nil {
			_, err = tmp.Write(payload)
		}
	}
	// Flush the entry to stable storage before it becomes reachable: a
	// rename is only atomic for names, not for data, and a power loss after
	// the rename but before writeback would otherwise publish a torn entry
	// under a valid name. (Verification would catch it as corrupt, but the
	// contract is stronger: a completed Put survives a crash.)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("resultcache: storing %s: %w", k, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("resultcache: storing %s: %w", k, err)
	}
	// Persist the rename itself: the new directory entry must survive a
	// crash, or the fsynced bytes are an orphan under a temp name.
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("resultcache: storing %s: %w", k, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry name is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Len counts the entries currently in the store (a test/diagnostic walk,
// not a hot-path operation).
func (d *Disk) Len() int {
	n := 0
	filepath.WalkDir(d.dir, func(path string, de os.DirEntry, err error) error {
		if err == nil && !de.IsDir() && len(de.Name()) == 2*sha256.Size {
			n++
		}
		return nil
	})
	return n
}

// EncodeEntry frames payload in the cache's verified-entry wire format —
// magic, SHA-256 of the payload, then the payload — the exact byte layout
// the disk tier writes. The cluster layer ships this frame between peers so
// the receiver runs the same DecodeEntry verification a local disk read
// does: a truncated or bit-flipped transfer fails the digest check and is
// treated as a miss, never served or stored.
func EncodeEntry(payload []byte) []byte {
	out := make([]byte, 0, len(entryMagic)+sha256.Size+len(payload))
	sum := sha256.Sum256(payload)
	out = append(out, entryMagic[:]...)
	out = append(out, sum[:]...)
	out = append(out, payload...)
	return out
}

// DecodeEntry verifies one wire-framed entry and returns its payload. It is
// the corrupted-entry-eviction path shared with the disk tier: any framing
// or digest failure returns an error wrapping ErrEntryCorrupt.
func DecodeEntry(frame []byte) ([]byte, error) {
	return readEntry(bytes.NewReader(frame))
}

// readEntry decodes and verifies one entry stream: magic, stored digest,
// then the payload whose SHA-256 must match. Factored over io.Reader so the
// fault-injection tests can interpose byte-level corruption exactly where a
// failing disk would.
func readEntry(r io.Reader) ([]byte, error) {
	var hdr [len(entryMagic) + sha256.Size]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: torn header: %v", ErrEntryCorrupt, err)
	}
	if [8]byte(hdr[:8]) != entryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrEntryCorrupt, hdr[:8])
	}
	payload, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrEntryCorrupt, err)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], hdr[8:]) {
		return nil, fmt.Errorf("%w: payload digest mismatch", ErrEntryCorrupt)
	}
	return payload, nil
}
