package provision

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"
	"time"

	"dosgi/internal/obs"
	"dosgi/internal/remote"
	"dosgi/internal/services"
)

// ReplicaResolver maps an artifact digest to the remote endpoints of live
// nodes advertising a copy. The cluster implements it over the replicated
// migrate directory; daemons resolve their configured peers.
type ReplicaResolver interface {
	Replicas(digest string) []remote.Endpoint
}

// StaticReplicas resolves every digest to a fixed endpoint list.
type StaticReplicas struct {
	Eps []remote.Endpoint
}

// Replicas implements ReplicaResolver.
func (r StaticReplicas) Replicas(string) []remote.Endpoint {
	return append([]remote.Endpoint(nil), r.Eps...)
}

// DefaultFetchWindow is how many chunk requests a fetch keeps in flight
// on one replica's pipelined connection.
const DefaultFetchWindow = 4

// FetcherOption configures a Fetcher.
type FetcherOption func(*Fetcher)

// WithFetchWindow sets the in-flight chunk request window.
func WithFetchWindow(n int) FetcherOption {
	return func(f *Fetcher) {
		if n > 0 {
			f.window = n
		}
	}
}

// WithCounters wires the provisioning counters.
func WithCounters(c *services.ProvisionCounters) FetcherOption {
	return func(f *Fetcher) { f.counters = c }
}

// WithFetchObserver records each successful chunk fetch's issue→response
// round trip into h; now supplies timestamps.
func WithFetchObserver(now func() time.Duration, h *obs.Histogram) FetcherOption {
	return func(f *Fetcher) {
		if now != nil && h != nil {
			f.now, f.chunkHist = now, h
		}
	}
}

// MaxArtifactSize bounds the payload a Fetch will allocate for. Artifact
// metadata comes from a replica's Describe or the replicated directory —
// the network — so its numbers are checked before they size anything.
const MaxArtifactSize = 256 << 20

// checkGeometry rejects chunk geometry no honest publisher produces
// (NewArtifact derives Chunks from Size and ChunkSize) before a fetch
// allocates or requests anything on its strength.
func checkGeometry(art Artifact) error {
	switch {
	case art.Size < 0 || art.Size > MaxArtifactSize:
		return fmt.Errorf("%w: %s: size %d outside [0, %d]", ErrVerification, art.Location, art.Size, int64(MaxArtifactSize))
	case art.ChunkSize <= 0 || art.ChunkSize > remote.MaxFrameSize/2:
		return fmt.Errorf("%w: %s: chunk size %d outside (0, %d]", ErrVerification, art.Location, art.ChunkSize, remote.MaxFrameSize/2)
	case art.Chunks != chunkCount(art.Size, art.ChunkSize):
		return fmt.Errorf("%w: %s: %d chunks, but %d bytes in %d-byte chunks is %d", ErrVerification,
			art.Location, art.Chunks, art.Size, art.ChunkSize, chunkCount(art.Size, art.ChunkSize))
	}
	return nil
}

// Fetcher streams artifact payloads chunk-by-chunk from repository
// replicas over the shared remote connection pool. Each chunk is copied
// from the connection's read buffer to its place in the payload, and a
// running SHA-256 follows the in-order prefix as chunks land, so the
// content digest is known the moment the last chunk is. Unless the proven
// table already holds the digest, each chunk is also copied to the same
// place in a second buffer that enters the table once the digest checks
// out, so verifying and storing the payload cost a byte compare instead of
// another hash (proven.go). Like the Invoker the fetcher fails over on any
// per-replica error — but mid-transfer: chunks already received survive
// the switch and only the missing ones are requested from the next
// replica. A payload whose digest does not match the metadata (a corrupted
// replica) is discarded wholesale and refetched from the next replica.
type Fetcher struct {
	pool      *remote.Pool
	resolver  ReplicaResolver
	counters  *services.ProvisionCounters
	window    int
	now       func() time.Duration
	chunkHist *obs.Histogram
}

// NewFetcher builds a fetcher calling through pool.
func NewFetcher(pool *remote.Pool, resolver ReplicaResolver, opts ...FetcherOption) *Fetcher {
	f := &Fetcher{pool: pool, resolver: resolver, window: DefaultFetchWindow}
	for _, opt := range opts {
		opt(f)
	}
	return f
}

// Fetch retrieves the payload of art asynchronously; cb fires exactly
// once with the digest-verified payload, which cb owns, or the final
// post-failover error. Metadata with impossible chunk geometry fails with
// ErrVerification before anything is allocated. Safe to call from
// simulation callbacks.
func (f *Fetcher) Fetch(art Artifact, cb func([]byte, error)) {
	if err := checkGeometry(art); err != nil {
		cb(nil, err)
		return
	}
	replicas := f.resolver.Replicas(art.Digest)
	if len(replicas) == 0 {
		cb(nil, fmt.Errorf("%w: %s (%s)", ErrNoReplica, art.Location, short(art.Digest)))
		return
	}
	if art.Chunks == 0 {
		// An empty artifact has nothing to transfer; only its digest
		// needs to check out.
		if PayloadDigest(nil) != art.Digest {
			cb(nil, fmt.Errorf("%w: %s: empty payload digest mismatch", ErrVerification, art.Location))
			return
		}
		if f.counters != nil {
			f.counters.ArtifactsFetched.Add(1)
		}
		cb([]byte{}, nil)
		return
	}
	st := &fetchState{
		f:        f,
		art:      art,
		cb:       cb,
		replicas: replicas,
		payload:  make([]byte, art.Size),
		have:     make([]bool, art.Chunks),
		digest:   sha256.New(),
		proving:  proven.wants(art.Digest, art.Size),
	}
	st.mu.Lock()
	st.launchLocked()
}

// fetchState is one in-progress fetch. launchLocked and the helpers it
// hands off to are entered with st.mu held and release it themselves so
// pool callbacks (which may run synchronously on netsim) never re-enter
// the lock.
type fetchState struct {
	f   *Fetcher
	art Artifact
	cb  func([]byte, error)

	mu       sync.Mutex
	replicas []remote.Endpoint
	ri       int    // replica being read
	gen      int    // attempt generation; callbacks from older attempts are stale
	payload  []byte // art.Size bytes; chunk i lands at i*ChunkSize
	have     []bool // chunks copied into payload
	cursor   int64  // scan position for the next missing chunk
	inflight int
	done     bool
	// digest has consumed chunks [0, hashed) of payload: responses may
	// complete in any order, the hash follows the in-order prefix — so
	// hashed == art.Chunks exactly when every chunk is in.
	digest hash.Hash
	hashed int64
	// proving files a copy of the payload in the proven table: every
	// chunk lands in proof too, allocated when the first one does so that
	// the allocation overlaps the first window's round trip.
	proving bool
	proof   []byte
}

// chunkBounds returns the byte range chunk idx occupies in the payload.
func (st *fetchState) chunkBounds(idx int64) (off, end int64) {
	return chunkBounds(idx, st.art.ChunkSize, st.art.Size)
}

// launchLocked fills the request window against the current replica and
// releases the lock.
func (st *fetchState) launchLocked() {
	type launch struct {
		idx int64
		gen int
	}
	var launches []launch
	for st.inflight < st.f.window {
		idx, ok := st.nextMissingLocked()
		if !ok {
			break
		}
		st.inflight++
		launches = append(launches, launch{idx: idx, gen: st.gen})
	}
	addr := st.replicas[st.ri].Addr
	st.mu.Unlock()
	for _, l := range launches {
		l := l
		var issuedAt time.Duration
		if st.f.chunkHist != nil {
			issuedAt = st.f.now()
		}
		req := &remote.Request{Service: ServiceName, Method: "Chunk", Args: []any{st.art.Digest, l.idx}}
		err := st.f.pool.Invoke(addr, req, func(resp *remote.Response, err error) {
			st.onChunk(l.gen, l.idx, issuedAt, resp, err)
		})
		if err != nil {
			st.onChunk(l.gen, l.idx, issuedAt, nil, err)
		}
	}
}

func (st *fetchState) nextMissingLocked() (int64, bool) {
	for ; st.cursor < st.art.Chunks; st.cursor++ {
		if !st.have[st.cursor] {
			idx := st.cursor
			st.cursor++
			return idx, true
		}
	}
	return 0, false
}

// onChunk is the completion callback of one Chunk request. The chunk
// bytes are borrowed from the connection's read buffer (remote's borrow
// contract), so they are copied to their place in the payload here, before
// the callback returns.
func (st *fetchState) onChunk(gen int, idx int64, issuedAt time.Duration, resp *remote.Response, err error) {
	if st.f.chunkHist != nil && err == nil && resp != nil && resp.Status == remote.StatusOK {
		st.f.chunkHist.Record(st.f.now() - issuedAt)
	}
	st.mu.Lock()
	if st.done || gen != st.gen {
		st.mu.Unlock()
		return
	}
	st.inflight--
	switch {
	case err != nil:
		st.failoverLocked(fmt.Errorf("provision: fetching %s from %s: %w",
			st.art.Location, st.replicas[st.ri].Addr, err))
		return
	case resp.Status != remote.StatusOK:
		st.failoverLocked(fmt.Errorf("provision: fetching %s from %s: %s",
			st.art.Location, st.replicas[st.ri].Addr, resp.Err))
		return
	}
	chunk, ok := firstBytes(resp.Results)
	if !ok {
		st.failoverLocked(fmt.Errorf("provision: fetching %s from %s: malformed chunk response",
			st.art.Location, st.replicas[st.ri].Addr))
		return
	}
	off, end := st.chunkBounds(idx)
	if int64(len(chunk)) != end-off {
		// The metadata fixes every chunk's length; a replica that answers
		// another is skipped now rather than after a full transfer and a
		// digest mismatch. What the others delivered is kept.
		st.failoverLocked(fmt.Errorf("provision: fetching %s from %s: chunk %d is %d bytes, want %d",
			st.art.Location, st.replicas[st.ri].Addr, idx, len(chunk), end-off))
		return
	}
	if !st.have[idx] {
		copy(st.payload[off:end], chunk)
		if st.proving {
			if st.proof == nil {
				st.proof = make([]byte, st.art.Size)
			}
			copy(st.proof[off:end], chunk)
		}
		st.have[idx] = true
		if st.f.counters != nil {
			st.f.counters.BytesTransferred.Add(end - off)
		}
		for st.hashed < st.art.Chunks && st.have[st.hashed] {
			o, e := st.chunkBounds(st.hashed)
			st.digest.Write(st.payload[o:e])
			st.hashed++
		}
	}
	if st.hashed == st.art.Chunks {
		st.finishLocked()
		return
	}
	st.launchLocked()
}

// finishLocked checks the streamed content digest once every chunk is in;
// a mismatch (a corrupted replica) discards everything — bytes and hash
// state — and retries from the next replica. A payload that checks out
// hands its proof copy, equal to the bytes just hashed, to the proven
// table.
func (st *fetchState) finishLocked() {
	payloadHashes.Add(1)
	if hex.EncodeToString(st.digest.Sum(nil)) != st.art.Digest {
		if st.f.counters != nil {
			st.f.counters.VerificationRejections.Add(1)
		}
		clear(st.have)
		st.hashed = 0
		st.digest.Reset()
		st.failoverLocked(fmt.Errorf("%w: %s: corrupt payload from %s",
			ErrVerification, st.art.Location, st.replicas[st.ri].Addr))
		return
	}
	st.done = true
	st.mu.Unlock()
	if st.proving {
		proven.add(st.art.Digest, st.proof)
	}
	if st.f.counters != nil {
		st.f.counters.ArtifactsFetched.Add(1)
	}
	st.cb(st.payload, nil)
}

// failoverLocked moves to the next replica (bumping the generation so
// outstanding callbacks from the failed one are ignored) or fails the
// fetch when none remain. Fetched chunks are kept unless the caller
// discarded them — mid-transfer failover resumes where it left off.
func (st *fetchState) failoverLocked(cause error) {
	st.gen++
	st.inflight = 0
	st.cursor = 0
	st.ri++
	if st.ri >= len(st.replicas) {
		st.done = true
		st.mu.Unlock()
		st.cb(nil, cause)
		return
	}
	if st.f.counters != nil {
		st.f.counters.FetchRetries.Add(1)
	}
	st.launchLocked()
}

func firstBytes(results []any) ([]byte, bool) {
	if len(results) == 0 {
		return nil, false
	}
	b, ok := results[0].([]byte)
	return b, ok
}
