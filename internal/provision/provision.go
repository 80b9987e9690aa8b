// Package provision is the cluster-wide bundle provisioning subsystem: a
// decentralized, replicated artifact repository with verified on-demand
// fetch, replacing the assumption that every node was pre-seeded with
// every bundle. It closes the dependability loop of the paper: a virtual
// instance redeployed after a crash can land on *any* surviving node,
// because the node fetches the bundles it is missing before the restore.
//
// The four parts, bottom up:
//
//	Store     content-addressed artifact blobs (SHA-256 digests, chunked)
//	Fetcher   streams missing artifacts chunk-by-chunk over the remote
//	          transport/pool, failing over to another replica mid-transfer
//	Verifier  digest + signature + policy gate (internal/security) an
//	          artifact must pass before it may be installed
//	Deployer  resolves the artifact's manifest dependencies against the
//	          repository index, registers the definition and installs and
//	          starts the bundle in the target framework
//
// Holdings are advertised through the replicated migrate directory
// (total-order broadcast, anti-entropy resync on view change), so every
// node resolves fetch replicas from its local directory copy.
//
// On the wire, fetches are ordinary remote invocations on the reserved
// service name "dosgi.provision" (verbs Describe / DescribeDigest / Find
// / Chunk / Locations — see docs/PROTOCOL.md §6.1), so they share
// connections, pooling and failover with application calls: a replica
// answering an application error is simply skipped, and a transfer
// resumes on the next replica with only its missing chunks.
//
// Go cannot load code dynamically, so an artifact payload carries the
// bundle's *content* — manifest text, named class entries with literal
// payloads, data files — while activator code is resolved at install time
// through a process-wide activator factory registry (the analog of the
// JVM having the code for a class once its bytes arrive).
package provision

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"dosgi/internal/manifest"
	"dosgi/internal/migrate"
	"dosgi/internal/module"
)

// Artifact is the metadata of one provisioned bundle artifact. It is the
// same record the replicated directory carries (Node names a holder there
// and stays empty in store/metadata contexts).
type Artifact = migrate.ArtifactInfo

// ServiceName is the reserved exported-service name every repository node
// serves its artifacts under; fetchers invoke it through the standard
// remote stack.
const ServiceName = "dosgi.provision"

// ServiceClass is the objectClass the repository service registers under.
const ServiceClass = "dosgi.provision.Repository"

// DefaultChunkSize is the fetch granularity when the publisher does not
// choose one (64 KiB keeps frames far below remote.MaxFrameSize while
// amortizing per-chunk round trips).
const DefaultChunkSize = 64 << 10

// Provisioning errors.
var (
	// ErrUnknownArtifact means neither the local store nor the repository
	// index knows the artifact.
	ErrUnknownArtifact = errors.New("provision: unknown artifact")
	// ErrNoReplica means the index knows the artifact but no live node
	// advertises a copy.
	ErrNoReplica = errors.New("provision: no replica holds artifact")
	// ErrVerification is the root of all verifier rejections.
	ErrVerification = errors.New("provision: verification failed")
)

// BundleImage is the installable content an artifact payload carries: the
// serializable subset of module.Definition. Classes values are literal
// payloads (strings); the activator named by the manifest is resolved
// through the activator factory registry at install time.
type BundleImage struct {
	ManifestText string            `json:"manifestText"`
	Classes      map[string]string `json:"classes,omitempty"`
	DataFiles    map[string][]byte `json:"dataFiles,omitempty"`
}

// Encode serializes the image deterministically (canonical JSON) so equal
// images always produce equal digests.
func (img *BundleImage) Encode() ([]byte, error) {
	return json.Marshal(img)
}

// DecodeImage parses an artifact payload.
func DecodeImage(payload []byte) (*BundleImage, error) {
	var img BundleImage
	if err := json.Unmarshal(payload, &img); err != nil {
		return nil, fmt.Errorf("provision: decoding image: %w", err)
	}
	return &img, nil
}

// PayloadDigest returns the hex SHA-256 content address of a payload.
func PayloadDigest(payload []byte) string {
	sum := hashPayload(payload)
	return hex.EncodeToString(sum[:])
}

// NewArtifact builds the signed artifact metadata and payload for an
// image: it validates the manifest, encodes the payload, computes the
// content digest and chunk geometry, and signs (signer, digest) with key.
// chunkSize ≤ 0 selects DefaultChunkSize.
func NewArtifact(location string, img *BundleImage, signer string, key []byte, chunkSize int64) (Artifact, []byte, error) {
	m, err := manifest.Parse(img.ManifestText)
	if err != nil {
		return Artifact{}, nil, err
	}
	payload, err := img.Encode()
	if err != nil {
		return Artifact{}, nil, err
	}
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	digest := PayloadDigest(payload)
	art := Artifact{
		Digest:       digest,
		Location:     location,
		SymbolicName: m.SymbolicName,
		Version:      m.Version.String(),
		Size:         int64(len(payload)),
		ChunkSize:    chunkSize,
		Chunks:       chunkCount(int64(len(payload)), chunkSize),
		Signer:       signer,
		Signature:    Sign(key, signer, digest),
	}
	return art, payload, nil
}

func chunkCount(size, chunkSize int64) int64 {
	if size == 0 {
		return 0
	}
	return (size + chunkSize - 1) / chunkSize
}

// chunkBounds returns the byte range chunk idx occupies in a payload of
// size bytes cut into chunkSize-byte chunks (the last one may be shorter).
func chunkBounds(idx, chunkSize, size int64) (off, end int64) {
	off = idx * chunkSize
	return off, min(off+chunkSize, size)
}

// FindBest returns the highest-version artifact among arts whose bundle
// coordinates satisfy (symbolicName, rng); version ties break on the
// lower digest so every caller resolves the same record. Records with an
// unparseable version are skipped.
func FindBest(arts []Artifact, symbolicName string, rng manifest.VersionRange) (Artifact, bool) {
	var best Artifact
	var bestV manifest.Version
	found := false
	for _, art := range arts {
		if art.SymbolicName != symbolicName {
			continue
		}
		v, err := manifest.ParseVersion(art.Version)
		if err != nil || !rng.Includes(v) {
			continue
		}
		c := 1
		if found {
			c = v.Compare(bestV)
		}
		if c > 0 || (c == 0 && art.Digest < best.Digest) {
			best, bestV, found = art, v, true
		}
	}
	return best, found
}

// activator factory registry: maps Bundle-Activator class names to Go
// constructors. Registration is process-wide — the reconstruction of "the
// code is installed everywhere, the bytes gate activation".
var (
	activatorMu        sync.Mutex
	activatorFactories = make(map[string]func() module.Activator)
)

// RegisterActivator registers the constructor for an activator class
// name, replacing any previous registration.
func RegisterActivator(name string, fn func() module.Activator) {
	activatorMu.Lock()
	defer activatorMu.Unlock()
	activatorFactories[name] = fn
}

// ActivatorFactory resolves a registered activator constructor.
func ActivatorFactory(name string) (func() module.Activator, bool) {
	activatorMu.Lock()
	defer activatorMu.Unlock()
	fn, ok := activatorFactories[name]
	return fn, ok
}
