// Package migrate implements the paper's Migration Module (§3.2): using
// the group communication substrate it maintains "knowledge of the
// available nodes and its resources" and of "the virtual instances running
// on each node" (issue 1), reacts to membership changes — graceful leaves
// migrate instances away, crashes trigger decentralized redeployment on the
// survivors (issue 2) — ships framework state through the SAN (issue 3),
// and invokes relocation hooks so service addresses follow instances
// (issue 4, realized by netsim IP takeover or ipvs re-registration at the
// cluster layer).
package migrate

import (
	"sort"
	"sync"

	"dosgi/internal/core"
	"dosgi/internal/health"
	"dosgi/internal/manifest"
)

// InstanceInfo is the directory's record of one virtual instance.
type InstanceInfo struct {
	ID core.InstanceID `json:"id"`
	// Node currently responsible for the instance.
	Node string `json:"node"`
	// CPU and Memory are the instance's resource requirements, consulted
	// by placement.
	CPU    int64 `json:"cpu"`
	Memory int64 `json:"memory"`
	// Priority orders instances when capacity runs short.
	Priority int `json:"priority"`
	// CheckpointPath locates the instance's durable state on the SAN.
	CheckpointPath string `json:"checkpointPath"`
	// Running records whether the instance was serving.
	Running bool `json:"running"`
}

// NodeInfo is the directory's record of one node's capacity.
type NodeInfo struct {
	Node        string `json:"node"`
	CPUCapacity int64  `json:"cpuCapacity"`
	MemCapacity int64  `json:"memCapacity"`
}

// EndpointInfo is the directory's record of one remotely invocable service
// replica: which node exports it and the transport address of that node's
// remote-services listener. The import-side Invoker resolves replicas from
// these records. Instance names the virtual framework exporting the
// service ("" for host-level exports); a migrated instance's endpoints are
// re-announced from the new host node under the same instance id, so
// importers can follow a service across relocations.
type EndpointInfo struct {
	Service  string `json:"service"`
	Node     string `json:"node"`
	Addr     string `json:"addr"`
	Instance string `json:"instance,omitempty"`
}

// ArtifactInfo is the directory's record of one replica of a provisioned
// bundle artifact: the artifact's identity (content digest, install
// location, bundle coordinates, chunking geometry, signer) plus the node
// holding a copy. The provisioning subsystem announces holdings through
// these records and resolves fetch replicas from them — the decentralized
// component repository replacing a centralized deployment directory.
type ArtifactInfo struct {
	// Digest is the hex SHA-256 of the artifact payload: the artifact's
	// content-addressed identity.
	Digest string `json:"digest"`
	// Location is the bundle install location the artifact deploys under.
	Location string `json:"location"`
	// SymbolicName/Version are the bundle coordinates from the manifest,
	// replicated so dependency resolution can search the index without
	// fetching payloads.
	SymbolicName string `json:"symbolicName"`
	Version      string `json:"version"`
	// Size is the payload length in bytes; ChunkSize and Chunks describe
	// how fetchers address pieces of it.
	Size      int64 `json:"size"`
	ChunkSize int64 `json:"chunkSize"`
	Chunks    int64 `json:"chunks"`
	// Signer is the subject that signed the artifact; Signature
	// authenticates (signer, digest) under the verifier's keyring.
	Signer    string `json:"signer"`
	Signature string `json:"signature"`
	// Node holds a copy ("" in contexts describing the artifact itself).
	Node string `json:"node"`
}

// Directory is each node's replica of the cluster state. All mutations
// arrive through totally-ordered broadcasts (or deterministic local
// application on view changes), so replicas converge. The endpoint,
// artifact and health record families are three instances of the same
// generic replicated record table (records.go): identical storage,
// identical exact-delta semantics.
type Directory struct {
	mu        sync.Mutex
	instances map[core.InstanceID]InstanceInfo
	nodes     map[string]NodeInfo
	endpoints *recordTable[EndpointInfo]
	artifacts *recordTable[ArtifactInfo]
	healths   *recordTable[health.Record]
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		instances: make(map[core.InstanceID]InstanceInfo),
		nodes:     make(map[string]NodeInfo),
		endpoints: newRecordTable(endpointFamily),
		artifacts: newRecordTable(artifactFamily),
		healths:   newRecordTable(healthFamily),
	}
}

// PutInstance upserts an instance record.
func (d *Directory) PutInstance(info InstanceInfo) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.instances[info.ID] = info
}

// RemoveInstance deletes an instance record.
func (d *Directory) RemoveInstance(id core.InstanceID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.instances, id)
}

// Instance returns one record.
func (d *Directory) Instance(id core.InstanceID) (InstanceInfo, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	info, ok := d.instances[id]
	return info, ok
}

// Instances returns all records sorted by id.
func (d *Directory) Instances() []InstanceInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]InstanceInfo, 0, len(d.instances))
	for _, info := range d.instances {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// InstancesOn returns the records hosted by node, sorted by id.
func (d *Directory) InstancesOn(node string) []InstanceInfo {
	var out []InstanceInfo
	for _, info := range d.Instances() {
		if info.Node == node {
			out = append(out, info)
		}
	}
	return out
}

// PutNode upserts a node capacity record.
func (d *Directory) PutNode(info NodeInfo) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nodes[info.Node] = info
}

// Node returns one node record.
func (d *Directory) Node(id string) (NodeInfo, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	info, ok := d.nodes[id]
	return info, ok
}

// Nodes returns all node records sorted by id.
func (d *Directory) Nodes() []NodeInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]NodeInfo, 0, len(d.nodes))
	for _, info := range d.nodes {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// PutEndpoint upserts a service endpoint record, reporting whether a
// record for (service, node) already existed — callers turn the result
// into REGISTERED vs MODIFIED service events.
func (d *Directory) PutEndpoint(info EndpointInfo) (existed bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.endpoints.put(info)
}

// ReplaceEndpointsOf makes infos the complete endpoint set of node,
// dropping any stale records — the authoritative resync each node
// broadcasts on view change, which re-converges replicas that missed
// incremental withdrawals during a partition. The returned deltas are
// exact (an unchanged record appears in neither list), so the resync a
// healed partition replays produces no spurious service events.
func (d *Directory) ReplaceEndpointsOf(node string, infos []EndpointInfo) (added, updated, removed []EndpointInfo) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.endpoints.replaceOf(node, infos)
}

// EndpointsAt returns every endpoint record served at addr, sorted by
// service then node.
func (d *Directory) EndpointsAt(addr string) []EndpointInfo {
	var out []EndpointInfo
	for _, info := range d.Endpoints() {
		if info.Addr == addr {
			out = append(out, info)
		}
	}
	return out
}

// AddrInUse reports whether any endpoint record is served at addr — the
// cheap emptiness probe (early exit, no copying or sorting) the eager
// pool-pruning hook runs on every endpoint removal.
func (d *Directory) AddrInUse(addr string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, infos := range d.endpoints.recs {
		for _, info := range infos {
			if info.Addr == addr {
				return true
			}
		}
	}
	return false
}

// EndpointsFor returns the replicas of service, sorted by node.
func (d *Directory) EndpointsFor(service string) []EndpointInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.endpoints.forKey(service)
}

// Endpoints returns every endpoint record, sorted by service then node.
func (d *Directory) Endpoints() []EndpointInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.endpoints.all()
}

// ArtifactReplicas returns the holding records of digest, sorted by node.
func (d *Directory) ArtifactReplicas(digest string) []ArtifactInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.artifacts.forKey(digest)
}

// ArtifactByLocation returns one record of the artifact deploying at
// location. When a location was republished and several digests coexist,
// the highest bundle version wins (version ties break on the lower
// digest), so every replica deterministically resolves the newest
// content rather than an arbitrary hash.
func (d *Directory) ArtifactByLocation(location string) (ArtifactInfo, bool) {
	var best ArtifactInfo
	var bestV manifest.Version
	found := false
	for _, info := range d.Artifacts() {
		if info.Location != location {
			continue
		}
		v, _ := manifest.ParseVersion(info.Version) // zero on a bad record
		c := 1
		if found {
			c = v.Compare(bestV)
		}
		if c > 0 || (c == 0 && info.Digest < best.Digest) {
			best, bestV, found = info, v, true
		}
	}
	return best, found
}

// Artifacts returns every holding record, sorted by digest then node.
func (d *Directory) Artifacts() []ArtifactInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.artifacts.all()
}

// HealthFor returns every node's record of component, sorted by node.
func (d *Directory) HealthFor(component string) []health.Record {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.healths.forKey(component)
}

// HealthOn returns node's health records, sorted by component.
func (d *Directory) HealthOn(node string) []health.Record {
	var out []health.Record
	for _, rec := range d.HealthRecords() {
		if rec.Node == node {
			out = append(out, rec)
		}
	}
	return out
}

// HealthRecords returns every health record, sorted by component then
// node — the replicated cluster-health view the admin plane aggregates.
func (d *Directory) HealthRecords() []health.Record {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.healths.all()
}

// Loads computes per-node load from the directory, restricted to the given
// live nodes.
func (d *Directory) Loads(live []string) []NodeLoad {
	liveSet := make(map[string]bool, len(live))
	for _, n := range live {
		liveSet[n] = true
	}
	loads := make(map[string]*NodeLoad)
	for _, n := range d.Nodes() {
		if liveSet[n.Node] {
			loads[n.Node] = &NodeLoad{Node: n.Node, CPUCapacity: n.CPUCapacity, MemCapacity: n.MemCapacity}
		}
	}
	for _, inst := range d.Instances() {
		if l, ok := loads[inst.Node]; ok {
			l.CPUUsed += inst.CPU
			l.MemUsed += inst.Memory
		}
	}
	out := make([]NodeLoad, 0, len(loads))
	for _, n := range live {
		if l, ok := loads[n]; ok {
			out = append(out, *l)
		}
	}
	return out
}
