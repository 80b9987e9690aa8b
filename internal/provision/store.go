package provision

import (
	"fmt"
	"sort"
	"sync"

	"dosgi/internal/manifest"
)

// Store is one node's content-addressed artifact store: payloads keyed by
// their SHA-256 digest, served in fixed-size chunks so fetchers can
// address pieces of them. Each payload is held once, contiguously, and is
// never written after Add — chunks are views of it, not copies. All
// methods are safe for concurrent use.
type Store struct {
	mu         sync.Mutex
	meta       map[string]Artifact // digest → metadata (Node empty)
	payloads   map[string][]byte   // digest → payload, immutable once stored
	byLocation map[string]string   // location → digest
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		meta:       make(map[string]Artifact),
		payloads:   make(map[string][]byte),
		byLocation: make(map[string]string),
	}
}

// Add stores an artifact payload under its metadata. The payload must
// match the metadata's size and digest — Add is the last line of defense
// against caching bytes that would fail verification on every future read.
// The caller's slice stays the caller's: the store keeps the proven copy
// the payload equals, or else a copy of its own.
func (s *Store) Add(art Artifact, payload []byte) error {
	if int64(len(payload)) != art.Size {
		return fmt.Errorf("%w: size mismatch storing %s (%d bytes, metadata %d)",
			ErrVerification, art.Location, len(payload), art.Size)
	}
	if art.ChunkSize <= 0 {
		return fmt.Errorf("provision: artifact %s has no chunk size", art.Location)
	}
	stored, err := proveDigest(art, payload)
	if err != nil {
		return err
	}
	if stored == nil {
		stored = append([]byte(nil), payload...)
	}
	art.Node = ""
	s.mu.Lock()
	defer s.mu.Unlock()
	s.meta[art.Digest] = art
	s.payloads[art.Digest] = stored
	s.byLocation[art.Location] = art.Digest
	return nil
}

// Remove drops an artifact from the store.
func (s *Store) Remove(digest string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if art, ok := s.meta[digest]; ok && s.byLocation[art.Location] == digest {
		delete(s.byLocation, art.Location)
	}
	delete(s.meta, digest)
	delete(s.payloads, digest)
}

// Has reports whether the store holds digest.
func (s *Store) Has(digest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.meta[digest]
	return ok
}

// Describe returns the metadata of digest.
func (s *Store) Describe(digest string) (Artifact, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	art, ok := s.meta[digest]
	return art, ok
}

// ArtifactAt returns the metadata of the artifact installed at location.
func (s *Store) ArtifactAt(location string) (Artifact, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	digest, ok := s.byLocation[location]
	if !ok {
		return Artifact{}, false
	}
	art, ok := s.meta[digest]
	return art, ok
}

// FindBundle returns the highest-version stored artifact whose bundle
// coordinates satisfy (symbolicName, rng).
func (s *Store) FindBundle(symbolicName string, rng manifest.VersionRange) (Artifact, bool) {
	return FindBest(s.List(), symbolicName, rng)
}

// Chunk returns chunk index of digest as a read-only view of the stored
// payload: no copy is made, callers must not write through it, and its
// capacity is clipped to its length so an append cannot reach the next
// chunk. The view stays valid (and unchanged) after Remove or
// CorruptChunk — those replace the stored payload, they never write it.
func (s *Store) Chunk(digest string, index int64) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	off, end, ok := s.chunkBoundsLocked(digest, index)
	if !ok {
		return nil, false
	}
	return s.payloads[digest][off:end:end], true
}

// chunkBoundsLocked returns the byte range of chunk index of digest.
func (s *Store) chunkBoundsLocked(digest string, index int64) (off, end int64, ok bool) {
	payload, ok := s.payloads[digest]
	if !ok {
		return 0, 0, false
	}
	size, chunkSize := int64(len(payload)), s.meta[digest].ChunkSize
	if index < 0 || index >= chunkCount(size, chunkSize) {
		return 0, 0, false
	}
	off, end = chunkBounds(index, chunkSize, size)
	return off, end, true
}

// Payload returns a copy of the full payload of digest.
func (s *Store) Payload(digest string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	payload, ok := s.payloads[digest]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), payload...), true
}

// List returns stored artifact metadata sorted by location then digest.
func (s *Store) List() []Artifact {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Artifact, 0, len(s.meta))
	for _, art := range s.meta {
		out = append(out, art)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Location != out[j].Location {
			return out[i].Location < out[j].Location
		}
		return out[i].Digest < out[j].Digest
	})
	return out
}

// CorruptChunk flips the first byte of one stored chunk — fault injection
// for dependability tests: a fetcher reading from this store assembles a
// payload whose digest no longer matches, which the verifier must reject
// and retry from another replica. It is copy-on-write: the stored payload
// is replaced by a corrupted copy, so chunk views already handed out are
// never written under a reader.
func (s *Store) CorruptChunk(digest string, index int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	off, _, ok := s.chunkBoundsLocked(digest, index)
	if !ok {
		return false
	}
	corrupted := append([]byte(nil), s.payloads[digest]...)
	corrupted[off] ^= 0xff
	s.payloads[digest] = corrupted
	return true
}
