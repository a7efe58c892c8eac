package sfcache

import (
	"bufio"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strings"
)

// EncodeKey is a fingerprint's wire encoding: base64, raw URL alphabet.
func EncodeKey[K string | []byte](key K) string {
	return base64.RawURLEncoding.EncodeToString([]byte(key))
}

// DecodeKey is the key half of a wire entry's Decode: base64 reversed,
// then CheckKey.
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

// A cache file is frames: fileMagic, the format version and the entry
// count (fileHeaderLen bytes, little-endian); the dictionary tables, if
// the format has any — each a uvarint count and that many records; per
// entry a record; then the CRC-32C of all of it. A record is a uvarint
// length and that many bytes. No length or count the file declares sizes
// an allocation past the caps below.
const (
	fileMagic     = "IOSF"
	fileHeaderLen = len(fileMagic) + 4 + 8
	// maxRecordLen caps a record (a stage key is ~10 bytes, a block's JSON a few KB).
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

// Cut returns the completed entries published after the given cut point
// — 0, or one a Cut or CutOwn of this core returned — as rows sorted by
// raw key, plus the next cut point.
//
// The cut is exact: publication stamps the epoch under the entry's shard
// mutex, and Cut holds every shard mutex while it scans, advances the
// epoch and reads it, so no concurrent Commit can land inside the cut
// unseen. A cut at the current cut point with nothing added since — a
// cluster's idle push — takes no lock and scans nothing.
// Entries evicted between cuts are simply absent — they are always
// recomputable. A row's key is a view of the table's immutable bytes, not
// a copy.
func (c *Core[V]) Cut(since uint64) ([]Row[V], uint64) { return c.cut(since, false) }

// CutOwn is Cut without the entries inserted by InsertPeerRows: what this
// cache computed or loaded from its own file, which is what a cluster node
// pushes to its peers.
func (c *Core[V]) CutOwn(since uint64) ([]Row[V], uint64) { return c.cut(since, true) }

// cut is Cut, skipping entries merged from a peer when own is set.
func (c *Core[V]) cut(since uint64, own bool) ([]Row[V], uint64) {
	// dirty first: read clear, no entry was stamped past the epoch it then
	// held, and since equal to the epoch read after it means that was the
	// same epoch — a cut point only a cut returned.
	if !c.dirty.Load() && since == uint64(c.epoch.Load()) {
		return nil, since
	}
	var rows []Row[V]
	if since == 0 {
		rows = make([]Row[V], 0, c.Len()) // the whole cache: grow once, not 5x
	}
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	now := c.epoch.Load() + 1 // the stamp of what was added since the last advance
	found := false
	for i := range c.shards {
		t := c.shards[i].tab.Load()
		for j := 0; t != nil && j < len(t.index); j++ {
			_, e, k, ok := t.at(j)
			if !ok {
				continue
			}
			stamp := e.stamp &^ fromPeer
			found = found || stamp == now
			if uint64(stamp) > since && (!own || e.stamp&fromPeer == 0) {
				rows = append(rows, Row[V]{Key: keyString(k), Val: e.val})
			}
		}
	}
	// Past 2^31-2 advances the epoch stays: a later cut then exports the
	// entries of the last stamp again, which an insert keeps only once.
	if found && now < fromPeer-1 {
		c.epoch.Store(now) // before dirty clears: see the first line
		c.dirty.Store(false)
	} else if !found {
		c.dirty.Store(false)
	}
	next := uint64(c.epoch.Load())
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
	slices.SortFunc(rows, CompareRows[V])
	return rows, next
}

// CompareRows orders rows by raw key, the order of a cut and of a file's entries.
func CompareRows[V any](a, b Row[V]) int { return strings.Compare(a.Key, b.Key) }

// InsertRows inserts the absent ones of already validated rows and
// returns how many it added; they count toward Stats.Loaded. A bounded
// core sheds after each row, so it holds at most its capacity once the
// call returns. An existing entry, completed or in flight, wins: both
// sides hold the result of the same deterministic computation.
func (c *Core[V]) InsertRows(rows []Row[V]) int { return c.insertRows(rows, 0) }

// InsertPeerRows is InsertRows for rows a peer sent: CutOwn skips them.
func (c *Core[V]) InsertPeerRows(rows []Row[V]) int { return c.insertRows(rows, fromPeer) }

func (c *Core[V]) insertRows(rows []Row[V], origin uint32) int {
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
		c.shed()
	}
	return added
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
	b, _ := fr.br.Peek(binary.MaxVarintLen32)
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
			rec, err := fr.record()
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
		rec, err := fr.record()
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
