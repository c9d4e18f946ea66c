package mc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// hashCorpus builds a deterministic corpus shaped like encoded machine
// states: long runs of zero bytes (uvarint zeros for counters, status
// bytes) interleaved with small counters that vary between states.
func hashCorpus() []string {
	var keys []string
	// All-zero keys of every length: the regression family. The previous
	// scheme derived the two bit positions from FNV-1a and FNV-1 of the
	// same key; on zero bytes the two variants' multiply and xor steps
	// commute, so the hashes were *identical* and the second position a
	// pure function of the first — SPIN's two-bit scheme collapsed to
	// single-bit hashing.
	for n := 1; n <= 256; n++ {
		keys = append(keys, string(make([]byte, n)))
	}
	rng := rand.New(rand.NewSource(7))
	prefix := make([]byte, 24)
	for i := range prefix {
		prefix[i] = byte(rng.Intn(6))
	}
	for i := 0; i < 30000; i++ {
		buf := append([]byte(nil), prefix...)
		buf = binary.AppendUvarint(buf, uint64(i))
		buf = binary.AppendUvarint(buf, uint64(i%7))
		keys = append(keys, string(buf))
	}
	return keys
}

// TestBitPositionHashesIndependentlySeeded: the two underlying 64-bit
// hashes must never coincide on the corpus. The old FNV-1a/FNV-1 pairing
// failed this on every all-zero key.
func TestBitPositionHashesIndependentlySeeded(t *testing.T) {
	for _, k := range hashCorpus() {
		if hashKey(hashSeedA, []byte(k)) == hashKey(hashSeedB, []byte(k)) {
			t.Fatalf("seeded hashes coincide on %q (len %d)", k, len(k))
		}
	}
}

// TestBitPositionsStatisticallyIndependent: across the corpus the two
// positions behave like independent uniform draws — the equal-position
// rate and the conditional collision rate (given a collision in the
// first position, how often the second collides too) stay near 1/m.
func TestBitPositionsStatisticallyIndependent(t *testing.T) {
	keys := hashCorpus()
	const bits = 10
	mask := uint64(1)<<bits - 1
	m := float64(mask + 1)

	same := 0
	byA := make(map[uint64][]uint64)
	for _, k := range keys {
		a, b := bitPositions([]byte(k), mask)
		if a == b {
			same++
		}
		byA[a] = append(byA[a], b)
	}
	// Equal positions: expected N/m ≈ 29.6; allow 4x before failing.
	if max := 4 * float64(len(keys)) / m; float64(same) > max {
		t.Errorf("positions equal for %d of %d keys (expected ≈%.0f, allowed %.0f)",
			same, len(keys), float64(len(keys))/m, max)
	}
	// Conditional collisions: for pairs colliding in position a, position
	// b must still collide at ≈1/m, not systematically.
	pairs, coll := 0, 0
	for _, bs := range byA {
		for i := 0; i < len(bs); i++ {
			for j := i + 1; j < len(bs); j++ {
				pairs++
				if bs[i] == bs[j] {
					coll++
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("corpus produced no first-position collisions; enlarge it")
	}
	if max := 4 * float64(pairs) / m; float64(coll) > max {
		t.Errorf("of %d first-position collisions, %d also collide in the second (expected ≈%.0f, allowed %.0f)",
			pairs, coll, float64(pairs)/m, max)
	}
	// And they must depend on the key at all.
	if len(byA) < 100 {
		t.Errorf("first position takes only %d values over the corpus", len(byA))
	}
}

func TestHashKeyDeterministic(t *testing.T) {
	for _, k := range []string{"", "a", "\x00\x00", "state"} {
		if hashKey(hashSeedA, []byte(k)) != hashKey(hashSeedA, []byte(k)) {
			t.Fatalf("hashKey not deterministic on %q", k)
		}
	}
}

// TestShardedMapSetTryAddOnce: hammered from many goroutines, the exact
// (arena) set admits every key exactly once — the property the parallel
// search's state count rests on — and every caller gets back the one
// stored copy of the key.
func TestShardedMapSetTryAddOnce(t *testing.T) {
	const keys, goroutines = 2000, 8
	s := new(arenaSet)
	var wg sync.WaitGroup
	wins := make([]int64, goroutines)
	stored := make([][][]byte, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stored[g] = make([][]byte, keys)
			for i := 0; i < keys; i++ {
				key := []byte(fmt.Sprintf("key-%d", i))
				vec, added, _ := s.TryAdd(key)
				if added {
					wins[g]++
				}
				if !bytes.Equal(vec, key) {
					t.Errorf("TryAdd(%q) returned %q", key, vec)
				}
				stored[g][i] = vec
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, w := range wins {
		total += w
	}
	if total != keys {
		t.Errorf("%d TryAdd wins for %d distinct keys", total, keys)
	}
	for i := 0; i < keys; i++ {
		for g := 1; g < goroutines; g++ {
			if &stored[g][i][0] != &stored[0][i][0] {
				t.Fatalf("key %d: callers got different copies", i)
			}
		}
	}
	if s.MemBytes() == 0 {
		t.Error("MemBytes = 0 after inserts")
	}
}

// TestArenaSetClosedFlag: a key's closed flag starts clear, is reported
// by later TryAdds once MarkClosed ran, and belongs to that key alone.
func TestArenaSetClosedFlag(t *testing.T) {
	s := new(arenaSet)
	a, _, _ := s.TryAdd([]byte("state-a"))
	s.TryAdd([]byte("state-b"))
	if _, added, closed := s.TryAdd([]byte("state-a")); added || closed {
		t.Fatalf("re-add before MarkClosed: added=%v closed=%v, want false false", added, closed)
	}
	s.MarkClosed(a)
	if _, added, closed := s.TryAdd([]byte("state-a")); added || !closed {
		t.Fatalf("re-add after MarkClosed: added=%v closed=%v, want false true", added, closed)
	}
	if _, _, closed := s.TryAdd([]byte("state-b")); closed {
		t.Fatal("MarkClosed of one key closed another")
	}
	// Closing must survive the slot table's growth.
	for i := 0; i < 5000; i++ {
		s.TryAdd([]byte(fmt.Sprintf("filler-%d", i)))
	}
	if _, _, closed := s.TryAdd([]byte("state-a")); !closed {
		t.Fatal("closed flag lost when the slot table grew")
	}
}

// TestArenaSetGrowth: keys spill across many chunks, one key is larger
// than the largest chunk, and every stored vector handed out earlier
// still reads back intact afterwards.
func TestArenaSetGrowth(t *testing.T) {
	s := new(arenaSet)
	rng := rand.New(rand.NewSource(3))
	var keys, vecs [][]byte
	add := func(key []byte) {
		vec, added, _ := s.TryAdd(key)
		if !added {
			t.Fatalf("fresh key of length %d not added", len(key))
		}
		keys, vecs = append(keys, key), append(vecs, vec)
	}
	for i := 0; i < 20000; i++ {
		key := make([]byte, 1+rng.Intn(300))
		rng.Read(key)
		key = binary.AppendUvarint(key, uint64(i)) // distinct
		add(key)
		if i == 10000 {
			huge := bytes.Repeat([]byte{0xF3}, 2*maxChunk+5)
			add(huge)
		}
	}
	var chunks int
	for i := range s.shards {
		chunks += len(s.shards[i].chunks)
	}
	if chunks <= numShards {
		t.Errorf("%d chunks for %d shards: arenas never grew past their first chunk", chunks, numShards)
	}
	for i, key := range keys {
		if !bytes.Equal(vecs[i], key) {
			t.Fatalf("stored vector %d (length %d) changed after later inserts", i, len(key))
		}
		if vec, added, _ := s.TryAdd(key); added || !bytes.Equal(vec, key) {
			t.Fatalf("key %d (length %d): re-add added=%v, vector intact=%v", i, len(key), added, bytes.Equal(vec, key))
		}
	}
	// A stored vector is capped: appending to it must not overwrite its
	// neighbor in the arena.
	if v := vecs[0]; cap(v) != len(v) {
		t.Errorf("stored vector has spare capacity %d", cap(v)-len(v))
	}
}

// TestShardedBitSetTryAddOnce: same single-admission guarantee for the
// bit-state set (within its false-positive tolerance: a key may lose to
// a hash collision, but never win twice).
func TestShardedBitSetTryAddOnce(t *testing.T) {
	const keys, goroutines = 2000, 8
	s := newShardedBitSet(22) // large enough that collisions are unlikely
	var wg sync.WaitGroup
	wins := make([]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				if _, added, _ := s.TryAdd([]byte(fmt.Sprintf("key-%d", i))); added {
					wins[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, w := range wins {
		total += w
	}
	if total > keys {
		t.Errorf("%d TryAdd wins for %d distinct keys: some key won twice", total, keys)
	}
	if total < keys-keys/10 {
		t.Errorf("only %d of %d keys admitted: bit array too collision-prone", total, keys)
	}
}

func TestShardedBitSetMemBytes(t *testing.T) {
	if got := newShardedBitSet(16).MemBytes(); got != 1<<16/8 {
		t.Errorf("MemBytes = %d, want %d", got, 1<<16/8)
	}
}

// TestBitstateBitsClamped: fill clamps an oversized BitstateBits to
// MaxBitstateBits. At 64 the size 1<<64 wrapped to a zero-length array
// and the first insert panicked; values in the 30s allocated gigabytes.
func TestBitstateBitsClamped(t *testing.T) {
	for _, bits := range []uint{MaxBitstateBits + 1, 40, 63, 64, 200} {
		o := Options{Mode: BitState, BitstateBits: bits}
		o.fill()
		if o.BitstateBits != MaxBitstateBits {
			t.Errorf("BitstateBits %d filled to %d, want %d", bits, o.BitstateBits, MaxBitstateBits)
		}
	}
	for _, bits := range []uint{6, 24, MaxBitstateBits} {
		o := Options{BitstateBits: bits}
		o.fill()
		if o.BitstateBits != bits {
			t.Errorf("in-range BitstateBits %d changed to %d", bits, o.BitstateBits)
		}
	}
}
