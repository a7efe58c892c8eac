package measure

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"ios/internal/atomicfile"
	"ios/internal/sfcache"
)

// fileVersion is the persisted-file format version (independent of
// KeyVersion, which versions the long-form key encoding and leads every
// context in the file's dictionary).
const fileVersion = 4

// maxDictEntries caps the count any dictionary table of a file may
// declare; ids are uint32 with one value reserved.
const maxDictEntries = 1 << 24

// Cache is the stage-measurement cache: sfcache's sharded singleflight
// core mapping a stage's id key (see the package comment) to its exact
// simulated latency in seconds, plus the dictionary the ids refer to. The
// first goroutine to miss a key claims it and runs the simulator while
// concurrent requesters wait, so a stage is never simulated twice. A
// completed entry is 16 pointer-free bytes in its shard's flat table — the
// latency, a publication stamp and a ref to its key, which sits once in the
// shard's byte arena as a length byte and the ~8 key bytes — that a hit
// reads without a lock and the collector never traces.
//
// The zero value is not usable; call NewCache or NewCacheSize.
type Cache struct {
	core *sfcache.Core[float64]
	dict dict
}

// Claim is an exclusive lease on one missing key: the holder measures
// and calls Commit, or Abandon on failure. See sfcache.Claim.
type Claim = sfcache.Claim[float64]

// Stats is a snapshot of the cache's traffic counters; Misses count
// simulator runs.
type Stats = sfcache.Stats

// NewCache returns an empty, unbounded measurement cache — the right
// default for searches over a fixed workload, where the entry count is
// bounded by the workload's structure.
func NewCache() *Cache { return NewCacheSize(0) }

// NewCacheSize returns an empty cache holding at most maxEntries
// completed keys (0 or negative = unbounded; see sfcache.NewCore) and, in
// each table of its dictionary, at most as many entries: a client
// submitting endless novel shapes cannot grow either.
func NewCacheSize(maxEntries int) *Cache {
	return &Cache{core: sfcache.NewCore[float64](maxEntries), dict: newDict(max(maxEntries, 0))}
}

// ContextID returns the id of a measurement context (Context's bytes) in
// this cache's dictionary, interning it if new; false means the
// dictionary is full and stages under this context cannot be keyed.
func (c *Cache) ContextID(ctx []byte) (uint32, bool) { return c.dict.context(ctx) }

// KernelID is ContextID for a kernel signature; false also for a
// signature no simulator accepts.
func (c *Cache) KernelID(s Signature) (uint32, bool) { return c.dict.kernel(s) }

// StreamID is ContextID for a stream record — a concurrency group's
// kernel count, then its kernels' KernelIDs, all uvarints — the element
// an id key names its streams by; false also for a record that is not
// one. A known record takes no lock and allocates nothing.
func (c *Cache) StreamID(rec []byte) (uint32, bool) { return c.dict.stream(rec) }

// Intern appends to dst the id key of a long-form key in this cache,
// interning what is new. It reports false for a malformed key and for one
// the dictionary has no room for.
func (c *Cache) Intern(dst, long []byte) ([]byte, bool) {
	ctx, stream := c.dict.intern()
	key, err := new(keyReader).rewrite(dst, long, ctx, stream)
	return key, err == nil
}

// GetOrBegin looks an id key up: the cached latency and a nil Claim on a
// hit (or after waiting out another goroutine's fill), a Claim the caller
// must Commit or Abandon on a miss. The key may be scratch; the cache
// copies it. See sfcache.Core.GetOrBegin.
func (c *Cache) GetOrBegin(done <-chan struct{}, key []byte) (float64, *Claim, error) {
	return c.core.GetOrBegin(done, key)
}

// Lookup returns the latency under a completed id key without claiming,
// waiting or counting.
func (c *Cache) Lookup(key []byte) (float64, bool) { return c.core.Lookup(key) }

// Len returns the number of completed entries.
func (c *Cache) Len() int { return c.core.Len() }

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats { return c.core.Stats() }

// rekey rewrites every row's key through the steps and drops the rows a
// step has no translation for.
func rekey(rows []sfcache.Row[float64], ctx, stream step) []sfcache.Row[float64] {
	var (
		in, out []byte
		kr      keyReader
	)
	kept := rows[:0]
	for _, r := range rows {
		var err error
		in = append(in[:0], r.Key...)
		if out, err = kr.rewrite(out[:0], in, ctx, stream); err == nil {
			kept = append(kept, sfcache.Row[float64]{Key: string(out), Val: r.Val})
		}
	}
	return kept
}

// Snapshot exports every completed entry published after the given cut
// point in the long form, sorted by it, plus the cut point to pass to the
// next incremental Snapshot. Snapshot(0) is the whole
// cache as inspectable JSON, and equal for equal contents whatever order
// the dictionary was filled in. The cut is exact; see sfcache.Core.Cut.
func (c *Cache) Snapshot(since uint64) ([]WireEntry, uint64) {
	rows, next := c.core.Cut(since)
	ctx, stream := expand(c.dict.tables()) // read after the cut: they cover its ids
	rows = rekey(rows, ctx, stream)
	slices.SortFunc(rows, sfcache.CompareRows[float64])
	out := make([]WireEntry, len(rows))
	for i, r := range rows {
		out[i] = WireEntry{Key: sfcache.EncodeKey(r.Key), Latency: r.Val}
	}
	return out, next
}

// Merge validates wire entries and inserts the absent ones, returning how
// many were added (a key already present is kept: both sides hold the
// result of the same deterministic computation). Merge is all-or-nothing:
// every entry is validated before the first is interned or inserted, so a
// corrupt batch leaves cache and dictionary exactly as they were. An
// entry a full dictionary cannot key is skipped. Added entries count
// toward Stats.Loaded.
func (c *Cache) Merge(entries []WireEntry) (int, error) {
	rows := make([]sfcache.Row[float64], len(entries))
	for i, we := range entries {
		raw, lat, err := we.Decode()
		if err != nil {
			return 0, fmt.Errorf("measure: cache entry %d: %w", i, err)
		}
		rows[i] = sfcache.Row[float64]{Key: string(raw), Val: lat}
	}
	ctx, stream := c.dict.intern()
	return c.core.InsertRows(rekey(rows, ctx, stream)), nil
}

// canonical numbers the entries of one dictionary table that table marks
// (anything but absent) by the rank of their file records, writes the
// ranks into table, and returns the records in that order.
func canonical(table []uint32, record func(id int) []byte) [][]byte {
	type entry struct {
		id  int
		rec []byte
	}
	var used []entry
	for id, m := range table {
		if m != absent {
			used = append(used, entry{id, record(id)})
		}
	}
	slices.SortFunc(used, func(a, b entry) int { return bytes.Compare(a.rec, b.rec) })
	recs := make([][]byte, len(used))
	for rank, e := range used {
		table[e.id], recs[rank] = uint32(rank), e.rec
	}
	return recs
}

// Save writes every completed entry as a cache file: sfcache's frames
// (see sfcache.WriteFrames) with three dictionary tables ahead of the
// entries — the contexts and the kernel signatures, each in its long
// form, then the streams, each its record under the file's kernel table —
// and per entry the id key under those tables, then the latency's 8 bits,
// little-endian. In-flight entries are skipped.
//
// The file is written under a canonical numbering, not the cache's own:
// only the dictionary entries the saved rows name, contexts and kernels
// sorted by long form, streams by their records under the kernels' new
// ids, and the rows sorted after translation. A file is therefore a pure
// function of the cache's contents — identical contents give identical
// bytes, whatever order parallel workers filled the dictionary in.
func (c *Cache) Save(w io.Writer) error {
	rows, _ := c.core.Cut(0)
	ctxs, kerns, streams := c.dict.tables() // read after the cut: they cover its ids
	ctxMap, kernMap, streamMap := unmarked(len(ctxs)), unmarked(len(kerns)), unmarked(streams.len())
	var (
		in, out []byte
		kr      keyReader
	)
	markCtx, markStream, markKern := mark(ctxMap), mark(streamMap), mark(kernMap)
	for _, r := range rows {
		var err error
		in = append(in[:0], r.Key...)
		if out, err = kr.rewrite(out[:0], in, markCtx, markStream); err != nil {
			return fmt.Errorf("measure: save cache: key %x: %w", in, err)
		}
	}
	for id, m := range streamMap {
		if m != absent {
			kr.b = streams.at(id)
			out, _ = kr.kernels(out[:0], markKern)
		}
	}
	// Kernels first: a stream's file record names the kernels' new ids.
	kernRecs := canonical(kernMap, func(id int) []byte { return kerns[id].appendTo(nil) })
	toKern := renumber(kernMap)
	tables := [][][]byte{
		canonical(ctxMap, func(id int) []byte { return []byte(ctxs[id]) }),
		kernRecs,
		canonical(streamMap, func(id int) []byte {
			kr.b = streams.at(id)
			rec, _ := kr.kernels(nil, toKern)
			return rec
		}),
	}
	for _, t := range tables {
		if len(t) > maxDictEntries {
			return fmt.Errorf("measure: save cache: a %d-entry dictionary table is over the %d-entry cap", len(t), maxDictEntries)
		}
	}
	rows = rekey(rows, renumber(ctxMap), renumber(streamMap))
	slices.SortFunc(rows, sfcache.CompareRows[float64])
	return sfcache.WriteFrames(w, "measure", fileVersion, tables, rows,
		func(dst []byte, key string, lat float64) ([]byte, error) {
			return binary.LittleEndian.AppendUint64(append(dst, key...), math.Float64bits(lat)), nil
		})
}

// unmarked is a renumber table of n ids, none of them marked.
func unmarked(n int) []uint32 {
	table := make([]uint32, n)
	for i := range table {
		table[i] = absent
	}
	return table
}

// mark is the step that marks an id in table (see canonical), appending
// nothing; an id outside the table has no translation.
func mark(table []uint32) step {
	return func(dst []byte, r *keyReader) ([]byte, bool) {
		id := r.int()
		if id >= uint64(len(table)) {
			return dst, false
		}
		table[id] = 0
		return dst, true
	}
}

// fileDict is the dictionary of a file being loaded: its three tables,
// validated record by record as ReadFrames streams them, against which
// the records that follow are checked.
type fileDict struct {
	ctxs    []string
	kerns   []Signature
	streams streamTable // records under kerns' ids
	prev    []byte      // the last record, for the order check

	// The parsers' scratch and parseRecord's steps: an id must lie inside
	// its table.
	buf         []byte
	kr          keyReader
	ctx, stream step
}

func newFileDict() *fileDict {
	fd := &fileDict{}
	fd.ctx = func(dst []byte, r *keyReader) ([]byte, bool) { return dst, r.int() < uint64(len(fd.ctxs)) }
	fd.stream = func(dst []byte, r *keyReader) ([]byte, bool) { return dst, r.int() < uint64(fd.streams.len()) }
	return fd
}

// ascending enforces the canonical order within a table — strictly
// ascending records — which also rules out duplicates.
func (fd *fileDict) ascending(i int, rec []byte) error {
	if i > 0 && bytes.Compare(fd.prev, rec) >= 0 {
		return fmt.Errorf("duplicate or out of order")
	}
	fd.prev = append(fd.prev[:0], rec...)
	return nil
}

// parseContext validates one record of the context table.
func (fd *fileDict) parseContext(i int, rec []byte) error {
	if err := checkContext(rec); err != nil {
		return err
	}
	fd.ctxs = append(fd.ctxs, string(rec))
	return fd.ascending(i, rec)
}

// parseKernel validates one record of the kernel-signature table.
func (fd *fileDict) parseKernel(i int, rec []byte) error {
	r := keyReader{b: rec}
	s := r.signature()
	if r.err != nil || len(r.b) != 0 {
		return fmt.Errorf("malformed kernel signature")
	}
	if err := s.check(); err != nil {
		return err
	}
	fd.kerns = append(fd.kerns, s)
	return fd.ascending(i, rec)
}

// parseStream validates one record of the stream table: a kernel count
// and that many ids inside the kernel table.
func (fd *fileDict) parseStream(i int, rec []byte) error {
	fd.kr.b, fd.kr.err = rec, nil
	var ok bool
	fd.buf, ok = fd.kr.kernels(fd.buf[:0], inTable(len(fd.kerns)))
	switch {
	case fd.kr.err != nil || len(fd.kr.b) != 0:
		return fmt.Errorf("malformed stream")
	case !ok:
		return fmt.Errorf("stream names a kernel past the kernel table")
	}
	fd.streams.add(rec)
	return fd.ascending(i, rec)
}

// parseRecord validates one entry record — an id key whose every id is
// inside the file's tables, then a latency a simulator can return — as
// Decode validates a peer's entry; key aliases rec.
func (fd *fileDict) parseRecord(rec []byte) ([]byte, float64, error) {
	if len(rec) < 8 {
		return nil, 0, fmt.Errorf("%d-byte record", len(rec))
	}
	key, lat := rec[:len(rec)-8], math.Float64frombits(binary.LittleEndian.Uint64(rec[len(rec)-8:]))
	var err error
	if fd.buf, err = fd.kr.rewrite(fd.buf[:0], key, fd.ctx, fd.stream); err != nil {
		return nil, 0, err
	}
	return key, lat, checkLatency(lat)
}

// Load merges a previously saved cache into c, returning how many entries
// were added (keys already present are kept, not overwritten).
//
// Load is all-or-nothing: the frame (see sfcache.ReadFrames), the three
// dictionary tables and every id of every record are validated before the
// first signature is interned or the first entry inserted, so a corrupt,
// truncated or version-mismatched file is an error that leaves cache and
// dictionary exactly as they were — callers start cold. The file's ids are
// then mapped to this cache's by table index, a stream through its
// kernels'; when the map is the identity — a restart into an empty cache —
// the keys go in as read. Entries a full dictionary cannot key are dropped.
func (c *Cache) Load(r io.Reader) (int, error) {
	fd := newFileDict()
	chunks, err := sfcache.ReadFrames(r, "measure", fileVersion, []sfcache.Table{
		{Max: maxDictEntries, Parse: fd.parseContext},
		{Max: maxDictEntries, Parse: fd.parseKernel},
		{Max: maxDictEntries, Parse: fd.parseStream},
	}, fd.parseRecord)
	if err != nil {
		return 0, err
	}
	ctxMap, kernMap, same := make([]uint32, len(fd.ctxs)), make([]uint32, len(fd.kerns)), true
	for i, ctx := range fd.ctxs {
		ctxMap[i], _ = c.dict.context([]byte(ctx)) // absent when the table is full
		same = same && ctxMap[i] == uint32(i)
	}
	for i, s := range fd.kerns {
		kernMap[i], _ = c.dict.kernel(s) // rows name no kernel: only streams map them
	}
	streamMap, toKern := unmarked(fd.streams.len()), renumber(kernMap)
	for i := range streamMap {
		fd.kr.b = fd.streams.at(i) // validated: the reader's error stays nil
		if rec, ok := fd.kr.kernels(fd.buf[:0], toKern); ok {
			fd.buf = rec
			streamMap[i], _ = c.dict.stream(rec)
		}
		same = same && streamMap[i] == uint32(i)
	}
	added := 0
	for _, rows := range chunks {
		if !same {
			rows = rekey(rows, renumber(ctxMap), renumber(streamMap))
		}
		added += c.core.InsertRows(rows)
	}
	return added, nil
}

// SaveFile writes the cache to path atomically (see atomicfile.Write), so
// a crash mid-save never truncates a previously good cache file. Safe to
// call while fills are in flight: Save cuts a consistent set of completed
// entries.
func (c *Cache) SaveFile(path string) error {
	return atomicfile.Write(path, c.Save)
}

// LoadFile merges the cache file at path into c; see Load.
func (c *Cache) LoadFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return c.Load(f)
}

// checkLatency rejects what no simulator run returns.
func checkLatency(lat float64) error {
	if math.IsNaN(lat) || math.IsInf(lat, 0) || lat < 0 {
		return fmt.Errorf("invalid latency %v", lat)
	}
	return nil
}

// WireEntry is the wire form of one completed measurement — the unit of
// Snapshot, the cache's inspectable JSON, and of Merge — under its
// long-form key.
type WireEntry struct {
	// Key is the canonical long-form fingerprint, base64 (raw URL alphabet).
	Key string `json:"key"`
	// Latency is the cached simulator output in seconds.
	Latency float64 `json:"latency"`
}

// Decode validates a wire entry and returns its raw long-form key and
// latency. It rejects malformed base64, keys built by an incompatible
// fingerprint-encoding version, keys that are not a Context followed by
// AppendStreams of kernels a simulator accepts, and non-finite or
// negative latencies.
func (we WireEntry) Decode() ([]byte, float64, error) {
	raw, err := sfcache.DecodeKey(we.Key, KeyVersion)
	if err != nil {
		return nil, 0, err
	}
	_, err = new(keyReader).rewrite(nil, raw,
		func(dst []byte, r *keyReader) ([]byte, bool) { r.context(); return dst, true },
		func(dst []byte, r *keyReader) ([]byte, bool) {
			return r.kernels(dst, func(dst []byte, r *keyReader) ([]byte, bool) {
				s := r.signature()
				return dst, r.err != nil || s.check() == nil
			})
		})
	if err != nil {
		return nil, 0, err
	}
	return raw, we.Latency, checkLatency(we.Latency)
}
