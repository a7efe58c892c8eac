package sfcache

import (
	"bufio"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strings"

	"ios/internal/atomicfile"
)

// Wire is the constraint on a cache's wire-entry type W: the unit of
// cluster peer exchange and an entry's inspectable JSON form (Snapshot(0)
// is a whole cache in it). Decode validates an entry from an untrusted
// peer and returns its raw fingerprint (see DecodeKey) and value; it and
// Codec.ParseRecord are the only ways outside bytes become cache contents.
type Wire[V any] interface {
	Decode() (key []byte, v V, err error)
}

// EncodeKey is a fingerprint's wire encoding: base64, raw URL alphabet (it
// doubles as the path segment of a peer GET).
func EncodeKey[K string | []byte](key K) string {
	return base64.RawURLEncoding.EncodeToString([]byte(key))
}

// DecodeKey is the key half of every Wire.Decode: base64 reversed, then CheckKey.
func DecodeKey(s string, keyVersion byte) ([]byte, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("bad key: %w", err)
	}
	return raw, CheckKey(raw, keyVersion)
}

// CheckKey rejects an empty fingerprint and one built by an incompatible
// key-encoding version (the first byte of every key).
func CheckKey(raw []byte, keyVersion byte) error {
	if len(raw) == 0 || raw[0] != keyVersion {
		return fmt.Errorf("key encoding version mismatch (cache built by an incompatible version)")
	}
	return nil
}

// Codec is what a package supplies to instantiate the core: how a
// completed value is rendered into its wire entry (W's Decode method is
// the other direction) and its cache-file record, and the file's stamp.
type Codec[V any, W Wire[V]] struct {
	// Name prefixes error messages.
	Name string
	// FileVersion is the persisted-file format version (independent of
	// the key-encoding version embedded in every key's first byte).
	FileVersion uint32
	// Encode renders one completed entry; key is the fingerprint already
	// in its wire encoding (what DecodeKey reverses).
	Encode func(key string, v V) W
	// AppendRecord appends an entry's cache-file record; key is raw.
	AppendRecord func(dst []byte, key string, v V) ([]byte, error)
	// ParseRecord validates one record of an untrusted cache file as W's
	// Decode does a peer's entry. The key may alias rec, which Load reuses.
	ParseRecord func(rec []byte) (key []byte, v V, err error)
}

// A cache file is frames: fileMagic, the codec's FileVersion and the
// entry count (fileHeaderLen bytes, little-endian); per entry a uvarint
// length and that many bytes of codec record; then the CRC-32C of all of
// it. No length it declares sizes an allocation past the caps below.
const (
	fileMagic     = "IOSF"
	fileHeaderLen = len(fileMagic) + 4 + 8
	// maxRecordLen caps a record (a stage key is ~300 bytes, a block's JSON a few KB).
	maxRecordLen = 1 << 20
	// loadChunk is how many parsed entries Load stages per allocation.
	loadChunk = 4096
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// row is one completed entry under its raw fingerprint.
type row[V any] struct {
	key string
	val V
}

// Snapshot exports every completed entry published after the given
// sequence point, sorted by fingerprint, plus the sequence point to pass
// to the next incremental Snapshot. Snapshot(0) exports the whole cache,
// as inspectable JSON; a cluster pusher feeds each call's returned point
// back in to ship only what was published since its last round.
//
// The cut is exact: publication stamps the sequence under the cell's
// shard mutex, and Snapshot holds every shard mutex while it scans and
// reads the counter, so no concurrent Commit can land inside the cut
// unseen. Entries evicted between snapshots are simply absent — they are
// always recomputable.
func (c *Cache[V, W]) Snapshot(since uint64) ([]W, uint64) {
	rows, next := c.cut(since)
	out := make([]W, 0, len(rows))
	for _, r := range rows {
		out = append(out, c.codec.Encode(EncodeKey(r.key), r.val))
	}
	return out, next
}

// cut is Snapshot's exact cut as rows sorted by raw key, for it and Save.
func (c *Cache[V, W]) cut(since uint64) ([]row[V], uint64) {
	var rows []row[V]
	if since == 0 {
		rows = make([]row[V], 0, c.Len()) // the whole cache: grow once, not 5x
	}
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	for i := range c.shards {
		for k, e := range c.shards[i].m {
			if e.state == cellDone && e.seq > since {
				rows = append(rows, row[V]{key: k, val: e.val})
			}
		}
	}
	next := c.seq.Load()
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
	slices.SortFunc(rows, func(a, b row[V]) int { return strings.Compare(a.key, b.key) })
	return rows, next
}

// Export returns the wire form of the completed entries among keys, in
// key order of the input; absent and in-flight keys are skipped. This is
// the lookup side of peer exchange: a peer asks for specific
// fingerprints and gets back only what this cache has finished.
func (c *Cache[V, W]) Export(keys [][]byte) []W {
	out := make([]W, 0, len(keys))
	for _, key := range keys {
		if v, ok := c.Lookup(key); ok {
			out = append(out, c.codec.Encode(EncodeKey(key), v))
		}
	}
	return out
}

// Merge validates wire entries and inserts the absent ones, returning
// how many were added (already-present fingerprints are kept, not
// overwritten — both sides hold the result of the same deterministic
// computation). Merge is all-or-nothing: every entry is validated before
// a single one is inserted, so a corrupt batch leaves the cache exactly as
// it was. Added entries count toward Stats.Loaded.
//
//ioslint:validator
func (c *Cache[V, W]) Merge(entries []W) (int, error) {
	rows := make([]row[V], len(entries))
	for i, we := range entries {
		raw, v, err := we.Decode()
		if err != nil {
			return 0, fmt.Errorf("%s: cache entry %d: %w", c.codec.Name, i, err)
		}
		rows[i] = row[V]{key: string(raw), val: v}
	}
	return c.insertRows(rows), nil
}

// insertRows inserts the absent ones of validated rows and counts them.
func (c *Cache[V, W]) insertRows(rows []row[V]) int {
	added := 0
	for _, r := range rows {
		if c.insert(r.key, r.val) {
			added++
		}
	}
	c.loaded.Add(int64(added))
	return added
}

// Save writes every completed entry as a cache file (see fileMagic).
// In-flight entries are skipped (their owners have not published yet).
// Entries are sorted by fingerprint, so the file is a pure function of the
// cache contents: identical runs produce byte-identical cache files.
func (c *Cache[V, W]) Save(w io.Writer) error {
	rows, _ := c.cut(0)
	sum := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(w, sum), 1<<16)
	hdr := binary.LittleEndian.AppendUint32([]byte(fileMagic), c.codec.FileVersion)
	bw.Write(binary.LittleEndian.AppendUint64(hdr, uint64(len(rows)))) // bw keeps its first error for Flush
	var rec []byte
	for _, r := range rows {
		var err error
		if rec, err = c.codec.AppendRecord(rec[:0], r.key, r.val); err != nil {
			return fmt.Errorf("%s: save cache: %w", c.codec.Name, err)
		}
		if len(rec) > maxRecordLen {
			return fmt.Errorf("%s: save cache: a %d-byte record is over the %d-byte cap", c.codec.Name, len(rec), maxRecordLen)
		}
		bw.Write(binary.AppendUvarint(hdr[:0], uint64(len(rec))))
		bw.Write(rec)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(hdr[:0], sum.Sum32()))
	return err
}

// Load merges a previously saved cache into c, returning how many entries
// were added (already-present fingerprints are kept, not overwritten).
//
// Load is all-or-nothing: magic, version, every record, the entry count,
// the checksum and the absence of trailing bytes are checked before the
// first insert, so a corrupt, truncated, or version-mismatched file is an
// error that leaves the cache exactly as it was — callers start cold, not
// half-poisoned. It streams: it allocates what it keeps, not what the
// header claims.
func (c *Cache[V, W]) Load(r io.Reader) (int, error) {
	fail := func(format string, args ...any) (int, error) {
		return 0, fmt.Errorf("%s: load cache: "+format, append([]any{c.codec.Name}, args...)...)
	}
	br := bufio.NewReaderSize(r, 1<<16)
	hdr := make([]byte, fileHeaderLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return fail("header: %w", err)
	}
	if string(hdr[:len(fileMagic)]) != fileMagic {
		return fail("not a version %d cache file (files of other versions are not read)", c.codec.FileVersion)
	}
	if v := binary.LittleEndian.Uint32(hdr[len(fileMagic):]); v != c.codec.FileVersion {
		return fail("cache file version %d, want %d", v, c.codec.FileVersion)
	}
	count := binary.LittleEndian.Uint64(hdr[len(fileMagic)+4:])
	sum := crc32.Update(0, castagnoli, hdr)
	var chunks [][]row[V]
	cur := make([]row[V], 0, min(count, loadChunk))
	var rec []byte
	for i := uint64(0); i < count; i++ {
		// A peek cut short by the end of the file fails in Uvarint.
		lenBytes, _ := br.Peek(binary.MaxVarintLen32) //ioslint:untrusted persisted cache file bytes
		n, w := binary.Uvarint(lenBytes)
		if w <= 0 || n > maxRecordLen {
			return fail("entry %d of %d: truncated or oversize record", i, count)
		}
		sum = crc32.Update(sum, castagnoli, lenBytes[:w])
		br.Discard(w)
		rec = slices.Grow(rec[:0], int(n))[:n]
		if _, err := io.ReadFull(br, rec); err != nil {
			return fail("entry %d of %d: %w", i, count, err)
		}
		sum = crc32.Update(sum, castagnoli, rec)
		key, v, err := c.codec.ParseRecord(rec)
		if err != nil {
			return fail("entry %d: %w", i, err)
		}
		if len(cur) == cap(cur) {
			chunks, cur = append(chunks, cur), make([]row[V], 0, loadChunk)
		}
		cur = append(cur, row[V]{key: string(key), val: v})
	}
	if _, err := io.ReadFull(br, hdr[:4]); err != nil {
		return fail("checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(hdr); got != sum {
		return fail("checksum %08x, computed %08x", got, sum)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return fail("bytes after the checksum")
	}
	added := 0
	for _, rows := range append(chunks, cur) {
		added += c.insertRows(rows)
	}
	return added, nil
}

// SaveFile writes the cache to path atomically (see atomicfile.Write), so
// a crash mid-save never truncates a previously good cache file. Safe to
// call while fills are in flight: Save cuts a consistent set of completed
// entries, so the file is loadable all-or-nothing regardless of what was
// mid-computation during the save.
func (c *Cache[V, W]) SaveFile(path string) error {
	return atomicfile.Write(path, c.Save)
}

// LoadFile merges the cache file at path into c; see Load.
func (c *Cache[V, W]) LoadFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return c.Load(f)
}
