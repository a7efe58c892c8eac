package sfcache

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLockFreeHitsRaceGrowth: lock-free hits on every kind of key — one a
// claim holds inline, a record of up to bigKey bytes, a block of its own —
// race a writer filling their shard, which grows the arena list, rebuilds
// the index and, after ReplaceOrBegin tombstones an entry, compacts the
// table into fresh storage. Every hit must read its own key's value, and
// every key committed before a read began must be found. Run under -race.
func TestLockFreeHitsRaceGrowth(t *testing.T) {
	const perKind = 1500
	sizes := []int{16, bigKey, 3 * bigKey}
	var keys [][]byte // perKind keys of each size, all in one shard
	var shard uint64
	for i := 0; len(keys) < len(sizes)*perKind; i++ {
		k := key(fmt.Sprintf("mix-%d-", i))
		k = append(k, strings.Repeat("m", sizes[len(keys)%len(sizes)]-len(k))...)
		if sh := hashKey(k) >> (64 - shardBits); len(keys) == 0 || sh == shard {
			shard = sh
			keys = append(keys, k)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	val := func(i int) float64 { return float64(i) + 0.5 }
	// The writer takes keys[i/2] back after each 97th commit: a Lookup
	// misses it while its new claim is in flight.
	const replaceEvery = 97
	replaced := map[int]bool{}
	for i := replaceEvery - 1; i < len(keys); i += replaceEvery {
		replaced[i/2] = true
	}

	c := NewCore[float64](0)
	var committed, reads atomic.Int64 // keys[:committed] are completed
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				reads.Add(1)
				done := int(committed.Load())
				i := rng.Intn(len(keys))
				if v, ok := c.Get(keys[i]); ok && v != val(i) {
					t.Errorf("Get(key %d, %d bytes) = %v, want %v", i, len(keys[i]), v, val(i))
				} else if i < done && !replaced[i] {
					if v, ok := c.Lookup(keys[i]); !ok || v != val(i) {
						t.Errorf("Lookup(committed key %d, %d bytes) = (%v, %v), want %v", i, len(keys[i]), v, ok, val(i))
					}
				}
			}
		}(r)
	}
	for i, k := range keys {
		_, cl, err := c.GetOrBegin(nil, k)
		if err != nil || cl == nil {
			t.Errorf("key %d: (_, %v, %v), want a claim", i, cl, err)
			break
		}
		cl.Commit(val(i))
		committed.Store(int64(i + 1))
		if i%replaceEvery == replaceEvery-1 { // the next rebuild compacts
			j := i / 2
			_, cl, _ := c.ReplaceOrBegin(nil, keys[j], val(j))
			if cl == nil {
				t.Errorf("key %d: ReplaceOrBegin of its own value gave no claim", j)
				break
			}
			cl.Commit(val(j))
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	t.Logf("%d reads raced %d commits", reads.Load(), len(keys))
	sh := c.shardFor(hashKey(keys[0]))
	if sh.blocks < perKind || c.Len() != len(keys) {
		t.Fatalf("the shard holds %d entries in %d arena blocks, want %d entries and a block a block key", c.Len(), sh.blocks, len(keys))
	}
	for i, k := range keys {
		if v, ok := c.Get(k); !ok || v != val(i) {
			t.Fatalf("after the run key %d reads (%v, %v), want %v", i, v, ok, val(i))
		}
	}
}

// blockKeys returns n distinct keys of more than bigKey bytes, each a
// block of its own in a table, that hash to one shard.
func blockKeys(n int) [][]byte {
	var keys [][]byte
	var first uint64
	for i := uint64(0); len(keys) < n; i++ {
		k := make([]byte, bigKey+1)
		k[0] = testKeyVersion
		binary.LittleEndian.PutUint64(k[1:], i)
		sh := hashKey(k) >> (64 - shardBits)
		if len(keys) == 0 {
			first = sh
		}
		if sh == first {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestShardAtBlockLimitSheds: an entry's key ref names one of refBlocks
// arena blocks, and a block key takes a block of its own, so a shard
// filling with block keys runs out of refs. It sheds a quarter of its
// entries and compacts once it holds maxBlocks instead: the shard never
// lists more blocks than a ref names, every key it still holds reads its
// own value, and the newest key is among them.
func TestShardAtBlockLimitSheds(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a shard with 65,636 block keys")
	}
	if maxArena > ownBlock || bigKey >= 1<<8 || maxBlocks+800 > refBlocks {
		t.Fatalf("a ref cannot name every record: maxArena %d, ownBlock %d, bigKey %d, blocks %d of %d",
			maxArena, ownBlock, bigKey, maxBlocks, refBlocks)
	}
	keys := blockKeys(refBlocks + 100)
	c := NewCore[float64](0)
	sh := c.shardFor(hashKey(keys[0]))
	for i, k := range keys {
		fill(t, c, k, float64(i))
		if sh.blocks > refBlocks {
			t.Fatalf("after %d block keys the shard lists %d arena blocks, past the %d a ref names", i+1, sh.blocks, refBlocks)
		}
	}
	st := c.Stats()
	if st.Evicted < maxBlocks/4 || st.Size != len(keys)-int(st.Evicted) {
		t.Fatalf("after %d block keys: %+v, want a quarter of the shard shed and the rest held", len(keys), st)
	}
	held := 0
	for i, k := range keys {
		if v, ok := c.Lookup(k); ok {
			held++
			if v != float64(i) {
				t.Fatalf("block key %d reads %v, want its own value", i, v)
			}
		} else if i == len(keys)-1 {
			t.Fatal("the newest block key was shed")
		}
	}
	if held != st.Size {
		t.Fatalf("%d keys read back, want the %d held", held, st.Size)
	}
}

// TestCutsSplitConcurrentCommits: successive incremental Cut and CutOwn
// calls, each from the point the previous one returned, race writers that
// commit and insert peer rows; together the Cuts return every entry
// exactly once, and the CutOwns every entry but the peer rows exactly
// once. Each round starts a fresh core, so cuts stay short and many
// commits land right after one releases the shard mutexes.
func TestCutsSplitConcurrentCommits(t *testing.T) {
	const rounds, writers, perWriter = 40, 4, 300
	peer := func(k string) bool { return strings.HasPrefix(k, string(key("peer"))) }
	for round := 0; round < rounds; round++ {
		c := NewCore[float64](0)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					k := fmt.Sprintf("w%d-%d%s", w, i, strings.Repeat("-", i%3*70))
					if i%4 == 3 {
						c.InsertPeerRows([]Row[float64]{{Key: string(key("peer" + k)), Val: 1}})
					} else if _, cl, err := c.GetOrBegin(nil, key(k)); cl != nil {
						cl.Commit(1)
					} else {
						t.Errorf("key %q: (_, %v, %v), want a claim", k, cl, err)
					}
				}
			}(w)
		}
		all, own := map[string]int{}, map[string]int{}
		var since, sinceOwn uint64
		cut := func() {
			var rows []Row[float64]
			rows, since = c.Cut(since)
			for _, r := range rows {
				all[r.Key]++
			}
			rows, sinceOwn = c.CutOwn(sinceOwn)
			for _, r := range rows {
				own[r.Key]++
				if peer(r.Key) {
					t.Fatalf("round %d: CutOwn exported the peer row %q", round, r.Key)
				}
			}
		}
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		for running := true; running; {
			select {
			case <-finished:
				running = false
			default:
			}
			cut()
		}
		cut()
		wantAll := writers * perWriter
		if len(all) != wantAll || len(own) != wantAll-wantAll/4 {
			t.Fatalf("round %d: the cuts exported %d entries and %d own ones, want %d and %d", round, len(all), len(own), wantAll, wantAll-wantAll/4)
		}
		for k, n := range all {
			if n != 1 {
				t.Fatalf("round %d: Cut exported %q %d times, want once", round, k, n)
			}
			if n := own[k]; n != 1 && !peer(k) {
				t.Fatalf("round %d: CutOwn exported %q %d times, want once", round, k, n)
			}
		}
	}
}

// TestIdleCutTakesNoLock: a cut at the current cut point with nothing
// added since — a cluster's idle push, every 500 ms per peer — returns
// while a shard mutex is held elsewhere, so it neither locks the shards
// nor scans them; once an entry is added, a cut waits for the mutex and
// finds it.
func TestIdleCutTakesNoLock(t *testing.T) {
	c := NewCore[float64](0)
	for i := 0; i < 100; i++ {
		fill(t, c, key(fmt.Sprint(i)), 1)
	}
	_, since := c.CutOwn(0)
	sh := &c.shards[3]
	sh.mu.Lock()
	idle := make(chan uint64)
	go func() {
		_, next := c.CutOwn(since)
		_, next2 := c.Cut(next)
		idle <- next2
	}()
	select {
	case next := <-idle:
		if next != since {
			t.Errorf("idle cuts moved the cut point %d -> %d", since, next)
		}
	case <-time.After(5 * time.Second):
		sh.mu.Unlock()
		t.Fatal("an idle cut waited on a shard mutex")
	}
	sh.mu.Unlock()

	fill(t, c, key("new"), 2)
	sh.mu.Lock()
	busy := make(chan []Row[float64])
	go func() {
		rows, _ := c.CutOwn(since)
		busy <- rows
	}()
	select {
	case <-busy:
		t.Fatal("a cut with an entry to export did not wait for the shard mutex")
	case <-time.After(50 * time.Millisecond):
	}
	sh.mu.Unlock()
	if rows := <-busy; len(rows) != 1 || rows[0].Key != string(key("new")) {
		t.Fatalf("the cut after a commit exported %v, want the new key", rows)
	}
}

// TestIdleCutsKeepTheEpoch: a cut that finds nothing new — a cluster's
// idle push — neither advances the epoch nor moves its cut point, so idle
// pushes cannot wear it out; one that finds a new entry, own or a peer's,
// advances it by one. An epoch at its last value stays there and exports
// the entries of its last stamp again rather than lose any.
func TestIdleCutsKeepTheEpoch(t *testing.T) {
	c := NewCore[float64](0)
	fill(t, c, key("a"), 1)
	rows, since := c.Cut(0)
	if len(rows) != 1 || since != 1 {
		t.Fatalf("first cut: %d rows, point %d; want 1 and 1", len(rows), since)
	}
	for i := 0; i < 1000; i++ {
		if rows, next := c.Cut(since); len(rows) != 0 || next != since {
			t.Fatalf("idle cut %d: %d rows, point %d -> %d; want none and no move", i, len(rows), since, next)
		}
		if rows, next := c.CutOwn(since); len(rows) != 0 || next != since {
			t.Fatalf("idle own cut %d: %d rows, point %d -> %d; want none and no move", i, len(rows), since, next)
		}
	}
	if e := c.epoch.Load(); e != 1 {
		t.Fatalf("after 2000 idle cuts the epoch is %d, want 1", e)
	}
	c.InsertPeerRows([]Row[float64]{{Key: string(key("p")), Val: 2}})
	if rows, next := c.CutOwn(since); len(rows) != 0 || next != since+1 {
		t.Fatalf("own cut after a peer row: %d rows, point %d -> %d; want none and one step", len(rows), since, next)
	}
	if rows, next := c.Cut(since); len(rows) != 1 || next != since+1 {
		t.Fatalf("cut after a peer row: %d rows, point %d -> %d; want it and the stepped point", len(rows), since, next)
	}

	last := uint32(fromPeer - 2) // stamps fromPeer-1, the largest below the flag
	c.epoch.Store(last)
	fill(t, c, key("b"), 3)
	for i := 0; i < 2; i++ {
		rows, next := c.Cut(uint64(last))
		if len(rows) != 1 || rows[0].Key != string(key("b")) || next != uint64(last) {
			t.Fatalf("cut %d at the last epoch: %v, point %d; want key b again and no move", i, rows, next)
		}
	}
	if rows, _ := c.CutOwn(uint64(last)); len(rows) != 1 {
		t.Fatalf("own cut at the last epoch: %v, want key b", rows)
	}
}

// TestArenaGrowsWithoutSteps: keys of one length spread evenly over the
// shards, so if every shard's record blocks opened at the same fills, all
// would open their next block within some hundred keys of each other, and
// the arena's bytes past its records would swing by up to shardCount
// blocks — half a megabyte — as a few more keys arrive. Filled with
// 10-byte keys, about a measurement cache's, from 50,000 keys (17 KB a
// shard) to 200,000, the bytes past the records stay under one block a
// shard and within a band of a quarter of that.
func TestArenaGrowsWithoutSteps(t *testing.T) {
	if first := minArena - (shardCount-1)*arenaStagger; first < 1+bigKey {
		t.Fatalf("the smallest first block, %d bytes, cannot hold a record of %d", first, 1+bigKey)
	}
	const keys, from, keyLen = 200_000, 50_000, 10
	c := NewCore[float64](0)
	arena := func() int {
		n := 0
		for i := range c.shards {
			sh := &c.shards[i]
			if tab := sh.tab.Load(); tab != nil {
				for _, b := range tab.arena[:sh.blocks] {
					n += len(b)
				}
			}
		}
		return n
	}
	k := make([]byte, keyLen)
	k[0] = testKeyVersion
	lo, hi := math.MaxInt, 0
	for i := 1; i <= keys; i++ {
		binary.LittleEndian.PutUint64(k[1:], uint64(i))
		fill(t, c, k, 1)
		if i < from || i%16 != 0 {
			continue
		}
		slack := arena() - i*(1+keyLen)
		lo, hi = min(lo, slack), max(hi, slack)
	}
	if hi > shardCount*maxArena || hi-lo > shardCount/4*maxArena {
		t.Fatalf("from %d to %d keys the arena held %d to %d bytes past its records, want a band of at most %d under %d",
			from, keys, lo, hi, shardCount/4*maxArena, shardCount*maxArena)
	}
	t.Logf("from %d to %d keys the arena held %d to %d bytes past its records", from, keys, lo, hi)
}
