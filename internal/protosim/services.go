package protosim

import (
	"encoding/json"
	"fmt"

	"dosgi/internal/manifest"
)

// repoView serves dosgi.provision over the simulator's synthetic
// artifact store. node "" is the primary listener's cluster-wide union;
// a named node answers only for its own holdings — so a fetcher talking
// to per-node listeners sees genuinely partial replicas it must fail
// over between.
type repoView struct {
	s    *Sim
	node string
}

// holds reports whether this view serves digest.
func (r *repoView) holds(digest string) bool {
	if r.node == "" {
		return r.s.store.Has(digest)
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	n, ok := r.s.byName[r.node]
	if !ok || n.state == nodeDead {
		return false
	}
	for _, d := range n.digests {
		if d == digest {
			return true
		}
	}
	return false
}

// Describe returns the JSON artifact record at location.
func (r *repoView) Describe(location string) ([]byte, error) {
	art, ok := r.s.store.ArtifactAt(location)
	if !ok || !r.holds(art.Digest) {
		return nil, fmt.Errorf("unknown artifact at %q", location)
	}
	return json.Marshal(art)
}

// DescribeDigest returns the JSON artifact record for digest.
func (r *repoView) DescribeDigest(digest string) ([]byte, error) {
	art, ok := r.s.store.Describe(digest)
	if !ok || !r.holds(digest) {
		return nil, fmt.Errorf("unknown artifact %q", digest)
	}
	return json.Marshal(art)
}

// Find resolves a bundle symbolic name and version range to an artifact
// record, as the real repository service does.
func (r *repoView) Find(symbolicName, versionRange string) ([]byte, error) {
	rng, err := manifest.ParseVersionRange(versionRange)
	if err != nil {
		return nil, err
	}
	art, ok := r.s.store.FindBundle(symbolicName, rng)
	if !ok || !r.holds(art.Digest) {
		return nil, fmt.Errorf("no artifact provides %s %s", symbolicName, versionRange)
	}
	return json.Marshal(art)
}

// Chunk returns one payload chunk. The chunk gate (SetChunkGate) is
// consulted first: a denial makes this replica answer an application
// error mid-transfer — the scripted fault a fetcher fails over from.
func (r *repoView) Chunk(digest string, index int64) ([]byte, error) {
	node := r.node
	if node == "" {
		node = "sim"
	}
	r.s.mu.Lock()
	gate := r.s.chunkGate
	r.s.mu.Unlock()
	if gate != nil && !gate(node, digest, index) {
		return nil, fmt.Errorf("chunk %d of %s: replica %s failed", index, digest, node)
	}
	if !r.holds(digest) {
		return nil, fmt.Errorf("no artifact with digest %q", digest)
	}
	chunk, ok := r.s.store.Chunk(digest, index)
	if !ok {
		return nil, fmt.Errorf("chunk %d of %s out of range", index, digest)
	}
	return chunk, nil
}

// Locations lists the artifact locations this view serves, sorted.
func (r *repoView) Locations() []string {
	out := []string{}
	for _, art := range r.s.store.List() {
		if r.holds(art.Digest) {
			out = append(out, art.Location)
		}
	}
	return out
}
