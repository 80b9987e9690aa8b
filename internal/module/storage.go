package module

import (
	"encoding/json"
	"fmt"
	"sort"
)

// BundleSnapshot is the persisted form of one bundle: identity, start
// intent and private data area. Definitions themselves are not persisted —
// they are re-read from the definition registry at restore time, exactly as
// OSGi re-reads bundle JARs from their location on restart.
type BundleSnapshot struct {
	ID         int64             `json:"id"`
	Location   string            `json:"location"`
	StartLevel int               `json:"startLevel"`
	Started    bool              `json:"started"`
	Data       map[string][]byte `json:"data,omitempty"`
}

// Snapshot is the persisted framework state required by the OSGi spec
// ("the framework state shall be persistent across framework reboots",
// §3.2 of the paper). The Migration Module ships snapshots through the SAN
// to redeploy virtual instances on other nodes.
type Snapshot struct {
	Name         string            `json:"name"`
	NextBundleID int64             `json:"nextBundleId"`
	StartLevel   int               `json:"startLevel"`
	Properties   map[string]string `json:"properties,omitempty"`
	Bundles      []BundleSnapshot  `json:"bundles"`
	// Extensions carries opaque embedder state (e.g. the instance
	// manager's instance descriptors) so it travels with the framework.
	Extensions map[string][]byte `json:"extensions,omitempty"`
}

// Encode serializes the snapshot.
func (s *Snapshot) Encode() ([]byte, error) {
	return json.Marshal(s)
}

// Snapshot captures the framework's persistent state: installed bundles,
// their start intent and data areas, framework properties and embedder
// extensions.
func (f *Framework) Snapshot() *Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	snap := &Snapshot{
		Name:         f.name,
		NextBundleID: int64(f.nextID),
		StartLevel:   f.targetStartLevel,
		Properties:   make(map[string]string, len(f.props)),
		Extensions:   make(map[string][]byte, len(f.snapshotExtender)),
	}
	for k, v := range f.props {
		snap.Properties[k] = v
	}
	for k, v := range f.snapshotExtender {
		cp := make([]byte, len(v))
		copy(cp, v)
		snap.Extensions[k] = cp
	}
	for _, b := range f.bundlesLocked() {
		if b.isSystem() {
			continue
		}
		bs := BundleSnapshot{
			ID:         int64(b.id),
			Location:   b.location,
			StartLevel: b.startLevel,
			Started:    b.persistentlyStarted,
			Data:       make(map[string][]byte, len(b.data)),
		}
		for name, content := range b.data {
			cp := make([]byte, len(content))
			copy(cp, content)
			bs.Data[name] = cp
		}
		snap.Bundles = append(snap.Bundles, bs)
	}
	return snap
}

// SetExtension stores opaque embedder state that travels with snapshots.
func (f *Framework) SetExtension(key string, value []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if value == nil {
		delete(f.snapshotExtender, key)
		return
	}
	cp := make([]byte, len(value))
	copy(cp, value)
	f.snapshotExtender[key] = cp
}

// Extension reads opaque embedder state.
func (f *Framework) Extension(key string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.snapshotExtender[key]
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, true
}

// NewFromSnapshot reconstructs a framework from persisted state. Bundle
// definitions are re-read from the definition registry supplied via
// options; locations whose definitions have disappeared are reported as an
// error after restoring everything else. Call Start to resume: persistently
// started bundles restart automatically, which is precisely the mechanism
// the Migration Module uses to redeploy an instance on another node.
func NewFromSnapshot(snap *Snapshot, opts ...Option) (*Framework, error) {
	opts = append([]Option{WithName(snap.Name), WithStartLevel(snap.StartLevel)}, opts...)
	f := New(opts...)
	for k, v := range snap.Properties {
		f.SetProperty(k, v)
	}
	for k, v := range snap.Extensions {
		f.SetExtension(k, v)
	}

	ordered := make([]BundleSnapshot, len(snap.Bundles))
	copy(ordered, snap.Bundles)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })

	var missing []string
	for _, bs := range ordered {
		f.mu.Lock()
		f.nextID = BundleID(bs.ID)
		f.mu.Unlock()
		b, err := f.InstallBundle(bs.Location)
		if err != nil {
			missing = append(missing, fmt.Sprintf("%s: %v", bs.Location, err))
			continue
		}
		f.mu.Lock()
		b.startLevel = bs.StartLevel
		b.persistentlyStarted = bs.Started
		b.data = make(map[string][]byte, len(bs.Data))
		for name, content := range bs.Data {
			cp := make([]byte, len(content))
			copy(cp, content)
			b.data[name] = cp
		}
		f.mu.Unlock()
	}
	f.mu.Lock()
	if next := BundleID(snap.NextBundleID); f.nextID < next {
		f.nextID = next
	}
	f.mu.Unlock()
	if len(missing) > 0 {
		return f, fmt.Errorf("module: restore incomplete, %d bundle(s) missing: %v", len(missing), missing)
	}
	return f, nil
}
