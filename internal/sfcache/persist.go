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
// cluster pushes and an entry's inspectable JSON form (Snapshot(0)
// is a whole cache in it). Decode validates an entry from an untrusted
// peer and returns its raw fingerprint (see DecodeKey) and value; it and
// Codec.ParseRecord are the only ways outside bytes become cache contents.
type Wire[V any] interface {
	Decode() (key []byte, v V, err error)
}

// EncodeKey is a fingerprint's wire encoding: base64, raw URL alphabet.
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

// Cache is a Core whose keys are their own wire form: the codec renders an
// entry for a peer or a cache file as it stands. W is V's wire entry.
//
// The zero value is not usable; call New.
type Cache[V any, W Wire[V]] struct {
	*Core[V]
	codec Codec[V, W]
}

// New returns an empty cache holding at most maxEntries completed
// fingerprints (0 or negative = unbounded); see NewCore.
func New[V any, W Wire[V]](codec Codec[V, W], maxEntries int) *Cache[V, W] {
	return &Cache[V, W]{Core: NewCore[V](maxEntries), codec: codec}
}

// A cache file is frames: fileMagic, the format version and the entry
// count (fileHeaderLen bytes, little-endian); the dictionary tables, if
// the format has any — each a uvarint count and that many records; per
// entry a record; then the CRC-32C of all of it. A record is a uvarint
// length and that many bytes. No length or count the file declares sizes
// an allocation past the caps below.
const (
	fileMagic     = "IOSF"
	fileHeaderLen = len(fileMagic) + 4 + 8
	// maxRecordLen caps a record (a stage key is ~20 bytes, a block's JSON a few KB).
	maxRecordLen = 1 << 20
	// loadChunk is how many parsed entries ReadFrames stages per allocation.
	loadChunk = 4096
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Row is one completed entry under its raw, in-memory fingerprint.
type Row[V any] struct {
	Key string
	Val V
}

// Table describes one dictionary table of a cache file to ReadFrames:
// records the entry records refer to by index, ahead of the entries.
type Table struct {
	// Max caps the count the file may declare.
	Max uint64
	// Parse validates record i of the table; rec is reused by the reader.
	Parse func(i int, rec []byte) error
}

// Snapshot exports every completed entry published after the given
// sequence point, sorted by fingerprint, plus the sequence point to pass
// to the next incremental Snapshot. Snapshot(0) exports the whole cache,
// as inspectable JSON.
func (c *Cache[V, W]) Snapshot(since uint64) ([]W, uint64) { return c.wire(c.cut(since, false)) }

// Own is Snapshot without the entries merged from a peer: what this cache
// computed or loaded from a file, which is what a cluster node pushes.
func (c *Cache[V, W]) Own(since uint64) ([]W, uint64) { return c.wire(c.cut(since, true)) }

func (c *Cache[V, W]) wire(rows []Row[V], next uint64) ([]W, uint64) {
	out := make([]W, 0, len(rows))
	for _, r := range rows {
		out = append(out, c.codec.Encode(EncodeKey(r.Key), r.Val))
	}
	return out, next
}

// Cut returns the completed entries published after the given sequence
// point as rows sorted by raw key, plus the next sequence point.
//
// The cut is exact: publication stamps the sequence under the entry's
// shard mutex, and Cut holds every shard mutex while it scans and reads
// the counter, so no concurrent Commit can land inside the cut unseen.
// Entries evicted between cuts are simply absent — they are always
// recomputable. A row's key is a view of the table's immutable bytes, not
// a copy.
func (c *Core[V]) Cut(since uint64) ([]Row[V], uint64) { return c.cut(since, false) }

// cut is Cut, skipping entries merged from a peer when own is set.
func (c *Core[V]) cut(since uint64, own bool) ([]Row[V], uint64) {
	var rows []Row[V]
	if since == 0 {
		rows = make([]Row[V], 0, c.Len()) // the whole cache: grow once, not 5x
	}
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	for i := range c.shards {
		t := c.shards[i].tab.Load()
		for j := 0; t != nil && j < len(t.index); j++ {
			if _, e, k, ok := t.at(j); ok && e.seq&^fromPeer > since && (!own || e.seq&fromPeer == 0) {
				rows = append(rows, Row[V]{Key: keyString(k), Val: e.val})
			}
		}
	}
	next := c.seq.Load()
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
	slices.SortFunc(rows, CompareRows[V])
	return rows, next
}

// CompareRows orders rows by raw key, the order of a cut and of a file's entries.
func CompareRows[V any](a, b Row[V]) int { return strings.Compare(a.Key, b.Key) }

// Merge validates wire entries and inserts the absent ones, returning
// how many were added (already-present fingerprints are kept, not
// overwritten — both sides hold the result of the same deterministic
// computation). Merge is all-or-nothing: every entry is validated before
// a single one is inserted, so a corrupt batch leaves the cache exactly as
// it was. Added entries count toward Stats.Loaded and are a peer's: Own
// skips them.
//
//ioslint:validator
func (c *Cache[V, W]) Merge(entries []W) (int, error) {
	rows := make([]Row[V], len(entries))
	for i, we := range entries {
		raw, v, err := we.Decode()
		if err != nil {
			return 0, fmt.Errorf("%s: cache entry %d: %w", c.codec.Name, i, err)
		}
		rows[i] = Row[V]{Key: string(raw), Val: v}
	}
	return c.insertRows(rows, fromPeer), nil
}

// InsertRows inserts the absent ones of already validated rows and
// returns how many it added; they count toward Stats.Loaded. An existing
// entry, completed or in flight, wins: both sides hold the result of the
// same deterministic computation.
func (c *Core[V]) InsertRows(rows []Row[V]) int { return c.insertRows(rows, 0) }

func (c *Core[V]) insertRows(rows []Row[V], origin uint64) int {
	added := 0
	for _, r := range rows {
		h := hashKey(r.Key)
		sh := c.shardFor(h)
		sh.mu.Lock()
		if _, ok := find(sh, r.Key, h); !ok && sh.claims[r.Key] == nil {
			c.addLocked(sh, r.Key, h, r.Val, origin)
			sh.loaded.Add(1)
			added++
		}
		sh.mu.Unlock()
	}
	return added
}

// Save writes every completed entry as a cache file (see fileMagic).
// In-flight entries are skipped (their owners have not published yet).
// Entries are sorted by fingerprint, so the file is a pure function of the
// cache contents: identical runs produce byte-identical cache files.
func (c *Cache[V, W]) Save(w io.Writer) error {
	rows, _ := c.Cut(0)
	return WriteFrames(w, c.codec.Name, c.codec.FileVersion, nil, rows, c.codec.AppendRecord)
}

// WriteFrames writes a cache file (see fileMagic): the header, each
// dictionary table's records, then one record per row, in the order given.
func WriteFrames[V any](w io.Writer, name string, version uint32, tables [][][]byte, rows []Row[V],
	appendRecord func(dst []byte, key string, v V) ([]byte, error)) error {
	sum := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(w, sum), 1<<16)
	hdr := binary.LittleEndian.AppendUint32([]byte(fileMagic), version)
	bw.Write(binary.LittleEndian.AppendUint64(hdr, uint64(len(rows)))) // bw keeps its first error for Flush
	writeRecord := func(rec []byte) error {
		if len(rec) > maxRecordLen {
			return fmt.Errorf("%s: save cache: a %d-byte record is over the %d-byte cap", name, len(rec), maxRecordLen)
		}
		bw.Write(binary.AppendUvarint(hdr[:0], uint64(len(rec))))
		bw.Write(rec)
		return nil
	}
	for _, t := range tables {
		bw.Write(binary.AppendUvarint(hdr[:0], uint64(len(t))))
		for _, rec := range t {
			if err := writeRecord(rec); err != nil {
				return err
			}
		}
	}
	var rec []byte
	for _, r := range rows {
		var err error
		if rec, err = appendRecord(rec[:0], r.Key, r.Val); err != nil {
			return fmt.Errorf("%s: save cache: %w", name, err)
		}
		if err := writeRecord(rec); err != nil {
			return err
		}
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
// Load is all-or-nothing: see ReadFrames.
func (c *Cache[V, W]) Load(r io.Reader) (int, error) { return c.load(r, 0) }

// MergeFrames is Load for a peer's cache in the file format (a cluster
// snapshot): the same validation, and the entries, like Merge's, are a
// peer's, which Own skips.
//
//ioslint:validator
func (c *Cache[V, W]) MergeFrames(r io.Reader) (int, error) { return c.load(r, fromPeer) }

func (c *Cache[V, W]) load(r io.Reader, origin uint64) (int, error) {
	chunks, err := ReadFrames(r, c.codec.Name, c.codec.FileVersion, nil, c.codec.ParseRecord)
	added := 0
	for _, rows := range chunks {
		added += c.insertRows(rows, origin)
	}
	return added, err
}

// frameReader reads a cache file's uvarints and records, checksumming
// what it consumes.
type frameReader struct {
	br  *bufio.Reader
	sum uint32
	rec []byte // the last record; reused
}

// uvarint reads a count or a record length of at most max.
func (fr *frameReader) uvarint(max uint64) (uint64, bool) {
	// A peek cut short by the end of the file fails in Uvarint.
	b, _ := fr.br.Peek(binary.MaxVarintLen32) //ioslint:untrusted persisted cache file bytes
	n, w := binary.Uvarint(b)
	if w <= 0 || n > max {
		return 0, false
	}
	fr.sum = crc32.Update(fr.sum, castagnoli, b[:w])
	fr.br.Discard(w)
	return n, true
}

// record reads one length-prefixed record into the reader's buffer.
func (fr *frameReader) record() ([]byte, error) {
	n, ok := fr.uvarint(maxRecordLen)
	if !ok {
		return nil, fmt.Errorf("truncated or oversize record")
	}
	fr.rec = slices.Grow(fr.rec[:0], int(n))[:n]
	if _, err := io.ReadFull(fr.br, fr.rec); err != nil {
		return nil, err
	}
	fr.sum = crc32.Update(fr.sum, castagnoli, fr.rec)
	return fr.rec, nil
}

// ReadFrames reads a cache file written by WriteFrames into validated
// rows, in chunks of loadChunk; tables lists the format's dictionary
// tables in file order (nil: none) and parse validates one entry record
// (its key may alias the record, which is reused).
//
// It is all-or-nothing: magic, version, every table and record, the entry
// count, the checksum and the absence of trailing bytes are checked before
// it returns a row, so a corrupt, truncated, or version-mismatched file is
// an error and no rows — callers start cold, not half-poisoned. It
// streams: it allocates what it returns, not what the header claims.
func ReadFrames[V any](r io.Reader, name string, version uint32, tables []Table,
	parse func(rec []byte) (key []byte, v V, err error)) ([][]Row[V], error) {
	fail := func(format string, args ...any) ([][]Row[V], error) {
		return nil, fmt.Errorf("%s: load cache: "+format, append([]any{name}, args...)...)
	}
	fr := frameReader{br: bufio.NewReaderSize(r, 1<<16)}
	hdr := make([]byte, fileHeaderLen)
	if _, err := io.ReadFull(fr.br, hdr); err != nil {
		return fail("header: %w", err)
	}
	if string(hdr[:len(fileMagic)]) != fileMagic {
		return fail("not a version %d cache file (files of other versions are not read)", version)
	}
	if v := binary.LittleEndian.Uint32(hdr[len(fileMagic):]); v != version {
		return fail("cache file version %d, want %d", v, version)
	}
	count := binary.LittleEndian.Uint64(hdr[len(fileMagic)+4:])
	fr.sum = crc32.Update(0, castagnoli, hdr)
	for ti, t := range tables {
		n, ok := fr.uvarint(t.Max)
		if !ok {
			return fail("dictionary table %d: truncated or oversize count", ti)
		}
		for i := 0; i < int(n); i++ {
			rec, err := fr.record() //ioslint:untrusted persisted cache file bytes
			if err == nil {
				err = t.Parse(i, rec)
			}
			if err != nil {
				return fail("dictionary table %d entry %d of %d: %w", ti, i, n, err)
			}
		}
	}
	var chunks [][]Row[V]
	cur := make([]Row[V], 0, min(count, loadChunk))
	for i := uint64(0); i < count; i++ {
		rec, err := fr.record() //ioslint:untrusted persisted cache file bytes
		if err != nil {
			return fail("entry %d of %d: %w", i, count, err)
		}
		key, v, err := parse(rec)
		if err != nil {
			return fail("entry %d: %w", i, err)
		}
		if len(cur) == cap(cur) {
			chunks, cur = append(chunks, cur), make([]Row[V], 0, loadChunk)
		}
		cur = append(cur, Row[V]{Key: string(key), Val: v})
	}
	if _, err := io.ReadFull(fr.br, hdr[:4]); err != nil {
		return fail("checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(hdr); got != fr.sum {
		return fail("checksum %08x, computed %08x", got, fr.sum)
	}
	if _, err := fr.br.ReadByte(); err != io.EOF {
		return fail("bytes after the checksum")
	}
	return append(chunks, cur), nil
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
