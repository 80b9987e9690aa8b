package provision

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
)

// A fetched payload is hashed once, by the Fetcher's streaming SHA-256.
// The Fetcher assembles a private second copy of the payload beside the
// one it hands out; when the digest checks out, that copy enters the
// process-wide proven table, and the Verifier and Store.Add then prove a
// payload's digest by comparing its bytes with that copy. Equality with
// bytes already hashed to the digest is an exact proof, and a payload
// written after the fetch no longer equals the copy, so it is hashed in
// full and rejected like any other mismatch.

// provenCapBytes bounds the proven table: entries are evicted oldest
// first once their charges would exceed it. Sixteen 1 MiB artifacts is a
// few times the number of fetches a node keeps in flight.
const provenCapBytes = 16 << 20

// provenEntryCharge is what an entry costs toward provenCapBytes on top
// of its payload (map slot, digest string, queue slot), so a flood of
// tiny artifacts is bounded by the cap too.
const provenEntryCharge = 128

// proven is shared by every Fetcher, Verifier and Store of the process.
var proven = &provenTable{entries: make(map[string][]byte)}

// payloadHashes counts full SHA-256 passes over payloads — streamed or
// one-shot — so tests and BenchmarkFetchVerify can count them exactly.
var payloadHashes atomic.Int64

// hashPayload is the one-shot SHA-256 of a payload.
func hashPayload(payload []byte) [sha256.Size]byte {
	payloadHashes.Add(1)
	return sha256.Sum256(payload)
}

// provenTable maps a digest to a copy of bytes whose SHA-256 was checked
// against it. Entries are never written: they are handed out only for
// comparison and as a Store's immutable payload.
type provenTable struct {
	mu        sync.Mutex
	entries   map[string][]byte
	fifo      []string // digests, oldest first
	bytes     int64    // charges of the entries held
	evictions int64
}

func provenCharge(payload []byte) int64 { return int64(len(payload)) + provenEntryCharge }

// lookup returns the proven bytes of digest, if the table holds them.
func (t *provenTable) lookup(digest string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	entry, ok := t.entries[digest]
	return entry, ok
}

// wants reports whether a payload of size bytes proven to hash to digest
// would be kept: the digest is not held and the payload fits the cap.
func (t *provenTable) wants(digest string, size int64) bool {
	if size+provenEntryCharge > provenCapBytes {
		return false
	}
	_, held := t.lookup(digest)
	return !held
}

// add files entry, whose SHA-256 the caller has just checked against
// digest, evicting the oldest entries until it fits. The table takes
// entry over: nobody may write it again. A digest already held keeps its
// entry and its place in the eviction order.
func (t *provenTable) add(digest string, entry []byte) {
	charge := provenCharge(entry)
	if charge > provenCapBytes {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.entries[digest]; ok {
		return
	}
	for t.bytes+charge > provenCapBytes {
		oldest := t.fifo[0]
		t.fifo[0] = ""
		t.fifo = t.fifo[1:]
		t.bytes -= provenCharge(t.entries[oldest])
		delete(t.entries, oldest)
		t.evictions++
	}
	t.entries[digest] = entry
	t.fifo = append(t.fifo, digest)
	t.bytes += charge
}

// usage returns the bytes charged to the entries held and the evictions
// so far.
func (t *provenTable) usage() (held, evictions int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes, t.evictions
}

// proveDigest checks that payload's SHA-256 is art.Digest: by comparing
// bytes with the proven copy when the table holds one, by hashing in full
// on a miss or a mismatch. It returns the proven copy when that is what
// payload equals (nil after hashing), or an error wrapping
// ErrVerification that names the observed digest.
func proveDigest(art Artifact, payload []byte) ([]byte, error) {
	if entry, ok := proven.lookup(art.Digest); ok && bytes.Equal(entry, payload) {
		return entry, nil
	}
	sum := hashPayload(payload)
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	if string(hexSum[:]) != art.Digest {
		return nil, fmt.Errorf("%w: %s: digest mismatch (got %s, want %s)",
			ErrVerification, art.Location, short(string(hexSum[:])), short(art.Digest))
	}
	return nil, nil
}
