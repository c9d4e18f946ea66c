package mc

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Visited-state structures for the frontier search. Both implementations
// are sharded: a shard is selected by the top bits of the key's hash (a
// hash prefix), and each shard has its own mutex, so the visited set is
// not the serialization point when many workers discover states at once.

const (
	shardBits = 6
	numShards = 1 << shardBits

	fnvPrime = 1099511628211
	// hashSeedA is the standard FNV-1a 64-bit offset basis; hashSeedB is
	// an unrelated odd constant (the 64-bit golden ratio). Seeding the
	// same byte walk at two unrelated points, then finalizing, yields two
	// hashes that behave independently — see bitPositions.
	hashSeedA = 14695981039346656037
	hashSeedB = 0x9e3779b97f4a7c15
)

// mix64 is a splitmix64-style avalanche: every output bit depends on
// every input bit.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// hashKey is seeded FNV-1a over key, finished with mix64. The finalizer
// matters: raw FNV values of the same key under related variants agree
// in much of their structure, which is exactly the correlation that
// degraded the two-bit bit-state scheme toward a single-bit one (each
// state effectively guarded by one bit instead of two, inflating false
// "visited" hits).
func hashKey(seed uint64, key []byte) uint64 {
	h := seed
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return mix64(h)
}

// bitPositions derives the two bit-state positions for a key from two
// independently seeded hashes (SPIN's two-bit scheme, §5.1). The previous
// implementation derived both positions from FNV-1a and FNV-1 of the same
// key, which are strongly correlated and could collapse to the same slot;
// shard_test.go holds the independence regression.
func bitPositions(key []byte, mask uint64) (uint64, uint64) {
	return hashKey(hashSeedA, key) & mask, hashKey(hashSeedB, key) & mask
}

// hashVec is the exact set's hash: a word at a time rather than FNV's
// byte at a time, finished with mix64. It is fixed (unseeded), so the
// set's layout — and its MemBytes — is reproducible.
func hashVec(key []byte) uint64 {
	const k = 0x9e3779b97f4a7c15
	h := uint64(len(key)) * k
	for len(key) >= 8 {
		h = bits.RotateLeft64((h^binary.LittleEndian.Uint64(key))*k, 29)
		key = key[8:]
	}
	var w uint64
	for i, b := range key {
		w |= uint64(b) << (8 * i)
	}
	return mix64((h ^ w) * k)
}

// shardedSet is the visited-state structure shared by the search workers.
// TryAdd atomically tests and records a key: the check and the insert
// must be one operation, or two workers reaching the same state
// simultaneously would both count and expand it. It returns the set's
// own copy of the key — the state's stored vector, which outlives the
// caller's encode buffer —, whether this call added it, and whether the
// state is closed.
//
// MarkClosed supports the partial-order reduction's cycle proviso (see
// expand): a state is "closed" once a worker has started expanding it.
// An ample set may defer transitions as long as one of its successor
// states is not closed yet — that successor's own (strictly later)
// expansion keeps the deferred transitions reachable. Implementations
// without per-key storage answer closed conservatively with true, which
// degrades the proviso to "some successor is brand new" — less
// reduction, still sound.
type shardedSet interface {
	TryAdd(key []byte) (vec []byte, added, closed bool)
	MarkClosed(vec []byte)
	MemBytes() int64
}

// Arena sizing: a shard's first chunk is small, so a search of a few
// hundred states does not pay for megabytes of set-up, and each later
// chunk doubles up to the cap.
const (
	firstChunk = 4 << 10
	maxChunk   = 1 << 20
	firstSlots = 16
)

// arenaSet is the exact (Exhaustive-mode) visited set and the only store
// of a state: each state vector is copied once into an append-only byte
// arena, and frontier nodes expand straight from that copy. Per shard,
// an open-addressing index of pointer-free slots locates the vectors, so
// the garbage collector sees a handful of chunk pointers instead of one
// string per state.
type arenaSet struct {
	shards [numShards]arenaShard
}

type arenaShard struct {
	mu     sync.Mutex
	slots  []arenaSlot // power-of-two table, linear probing
	used   int
	chunks [][]byte // each appended within its capacity, never moved
	bytes  int64    // slot table plus chunk capacity
}

// arenaSlot locates one stored vector: its hash, and the chunk and
// offset of its length-prefixed bytes. ref is the chunk index plus one
// (zero marks an empty slot); its top bit is the closed flag.
type arenaSlot struct {
	hash uint64
	ref  uint32
	off  uint32
}

const (
	closedBit = 1 << 31
	slotBytes = 16
)

func (s *arenaSet) TryAdd(key []byte) ([]byte, bool, bool) {
	h := hashVec(key)
	sh := &s.shards[h>>(64-shardBits)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, found := sh.probe(h, key)
	if found {
		sl := &sh.slots[i]
		return sh.vec(sl), false, sl.ref&closedBit != 0
	}
	if (sh.used+1)*4 > len(sh.slots)*3 {
		sh.grow()
		i, _ = sh.probe(h, key)
	}
	sh.used++
	sl := &sh.slots[i]
	sl.hash = h
	sl.ref, sl.off = sh.store(key)
	return sh.vec(sl), true, false
}

func (s *arenaSet) MarkClosed(vec []byte) {
	h := hashVec(vec)
	sh := &s.shards[h>>(64-shardBits)]
	sh.mu.Lock()
	if i, found := sh.probe(h, vec); found {
		sh.slots[i].ref |= closedBit
	}
	sh.mu.Unlock()
}

func (s *arenaSet) MemBytes() int64 {
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.bytes
		sh.mu.Unlock()
	}
	return total
}

// probe returns the slot holding key, or the empty slot where it belongs.
func (sh *arenaShard) probe(h uint64, key []byte) (int, bool) {
	if len(sh.slots) == 0 {
		sh.slots = make([]arenaSlot, firstSlots)
		sh.bytes += firstSlots * slotBytes
	}
	mask := len(sh.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		sl := &sh.slots[i]
		if sl.ref == 0 {
			return i, false
		}
		if sl.hash == h && bytes.Equal(sh.vec(sl), key) {
			return i, true
		}
	}
}

// grow doubles the slot table, reinserting by the stored hashes.
func (sh *arenaShard) grow() {
	old := sh.slots
	sh.slots = make([]arenaSlot, 2*len(old))
	sh.bytes += int64(len(old)) * slotBytes
	mask := len(sh.slots) - 1
	for _, sl := range old {
		if sl.ref == 0 {
			continue
		}
		i := int(sl.hash) & mask
		for sh.slots[i].ref != 0 {
			i = (i + 1) & mask
		}
		sh.slots[i] = sl
	}
}

// store appends key, length-prefixed, to the shard's arena and returns
// its slot reference and offset.
func (sh *arenaShard) store(key []byte) (uint32, uint32) {
	need := binary.MaxVarintLen32 + len(key)
	var c []byte
	if k := len(sh.chunks); k > 0 {
		c = sh.chunks[k-1]
	}
	if cap(c)-len(c) < need {
		size := firstChunk
		if c != nil {
			size = min(2*cap(c), maxChunk)
		}
		c = make([]byte, 0, max(size, need))
		sh.chunks = append(sh.chunks, c)
		sh.bytes += int64(cap(c))
	}
	off := len(c)
	c = binary.AppendUvarint(c, uint64(len(key)))
	c = append(c, key...)
	sh.chunks[len(sh.chunks)-1] = c
	return uint32(len(sh.chunks)), uint32(off)
}

// vec returns the stored vector a slot locates, capped so that appending
// to it cannot overwrite its neighbor.
func (sh *arenaShard) vec(sl *arenaSlot) []byte {
	c := sh.chunks[sl.ref&^closedBit-1][sl.off:]
	n, k := binary.Uvarint(c)
	end := k + int(n)
	return c[k:end:end]
}

// shardedBitSet is SPIN's bit-state hashing (§5.1) made safe for
// concurrent workers: each state sets two hash-derived bits, and a state
// is "visited" when both are already set. False positives (missed states)
// are possible — the search is partial but uses constant memory. The set
// stores no vectors: an admitted state gets a private copy of its key,
// which its frontier node holds until it is expanded.
//
// The two bit positions of one key can land in words "belonging" to
// different shards, so the words themselves are only ever touched with
// atomic operations; a mutex selected by the low bits of the first
// position serializes concurrent TryAdds of the same key so exactly one
// worker wins a newly seen state.
type shardedBitSet struct {
	words []uint64
	mask  uint64
	locks [numShards]sync.Mutex
}

func newShardedBitSet(log2bits uint) *shardedBitSet {
	if log2bits < 6 {
		log2bits = 6 // at least one word
	}
	n := uint64(1) << log2bits
	return &shardedBitSet{words: make([]uint64, n/64), mask: n - 1}
}

// TryAdd reports a state closed whenever it was seen before (see the
// interface comment): the reduction's proviso then accepts only
// brand-new successors as deferral witnesses.
func (s *shardedBitSet) TryAdd(key []byte) ([]byte, bool, bool) {
	a, b := bitPositions(key, s.mask)
	l := &s.locks[a%numShards]
	l.Lock()
	hadA := s.setBit(a)
	hadB := s.setBit(b)
	l.Unlock()
	if hadA && hadB {
		return nil, false, true
	}
	return bytes.Clone(key), true, false
}

// setBit atomically sets bit pos and reports whether it was already set.
func (s *shardedBitSet) setBit(pos uint64) bool {
	w := &s.words[pos/64]
	bit := uint64(1) << (pos % 64)
	for {
		old := atomic.LoadUint64(w)
		if old&bit != 0 {
			return true
		}
		if atomic.CompareAndSwapUint64(w, old, old|bit) {
			return false
		}
	}
}

// MarkClosed is a no-op: bit-state hashing stores no per-key flag.
func (s *shardedBitSet) MarkClosed([]byte) {}

func (s *shardedBitSet) MemBytes() int64 { return int64(len(s.words) * 8) }
