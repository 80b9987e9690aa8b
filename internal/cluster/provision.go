// Provisioning wiring: every node runs the full bundle-provisioning
// stack of internal/provision. Artifacts published anywhere are
// advertised through the replicated migrate directory, proactively
// replicated to the cluster's replication factor, and fetched on demand —
// chunked over the shared remote connection pool, digest- and
// signature-verified, dependency-resolved — wherever a deploy or an
// instance failover needs them.
package cluster

import (
	"fmt"
	"sort"

	"dosgi/internal/clock"
	"dosgi/internal/gcs"
	"dosgi/internal/manifest"
	"dosgi/internal/migrate"
	"dosgi/internal/module"
	"dosgi/internal/provision"
	"dosgi/internal/remote"
	"dosgi/internal/services"
)

// nodeProvision bundles one node's provisioning runtime.
type nodeProvision struct {
	node     *Node
	store    *provision.Store
	deployer *provision.Deployer
	verifier *provision.Verifier
	counters *services.ProvisionCounters

	// recheckTimer drives the periodic full replication recheck — the
	// retry path for repair fetches that failed transiently.
	recheckTimer clock.Timer

	// fetching guards against duplicate concurrent replication fetches.
	fetching map[string]bool
}

// directoryIndex resolves artifact metadata from the node's replica of
// the cluster directory.
type directoryIndex struct {
	mod *migrate.Module
}

func (ix directoryIndex) ArtifactAt(location string) (provision.Artifact, bool) {
	return ix.mod.Directory().ArtifactByLocation(location)
}

func (ix directoryIndex) FindBundle(symbolicName string, rng manifest.VersionRange) (provision.Artifact, bool) {
	return provision.FindBest(ix.mod.Directory().Artifacts(), symbolicName, rng)
}

// directoryReplicas resolves fetch replicas: the intersection of the
// digest's advertised holders and the nodes exporting the provisioning
// service, excluding this node itself. Order is by node id, so every
// fetcher walks the same failover chain deterministically.
type directoryReplicas struct {
	mod  *migrate.Module
	self string
}

func (r directoryReplicas) Replicas(digest string) []remote.Endpoint {
	dir := r.mod.Directory()
	addrs := make(map[string]string)
	for _, ep := range dir.EndpointsFor(provision.ServiceName) {
		addrs[ep.Node] = ep.Addr
	}
	var eps []remote.Endpoint
	for _, holder := range dir.ArtifactReplicas(digest) {
		if holder.Node == r.self {
			continue
		}
		if addr, ok := addrs[holder.Node]; ok {
			eps = append(eps, remote.Endpoint{Node: holder.Node, Addr: addr})
		}
	}
	return eps
}

// setupProvision assembles the node's provisioning runtime. Call after
// the remote stack and migration module exist and the module is started,
// but before the group member starts.
func (n *Node) setupProvision() {
	counters := &services.ProvisionCounters{}
	store := provision.NewStore()
	fetcher := provision.NewFetcher(n.invoker.Pool(),
		directoryReplicas{mod: n.mod, self: n.cfg.ID},
		provision.WithCounters(counters),
		provision.WithFetchObserver(n.cluster.eng.Now, n.obsPlane.ChunkFetch))
	verifier := provision.NewVerifier(n.cluster.provKeyring, n.cluster.provPolicy)
	p := &nodeProvision{
		node:     n,
		store:    store,
		verifier: verifier,
		counters: counters,
		fetching: make(map[string]bool),
	}
	deployer, err := provision.NewDeployer(provision.DeployerConfig{
		Store:       store,
		Fetcher:     fetcher,
		Verifier:    verifier,
		Index:       directoryIndex{mod: n.mod},
		Definitions: n.defs,
		Framework:   n.host,
		Counters:    counters,
		// Every verified fetch strengthens the repository: the new copy
		// is advertised so future fetches and replication count it.
		OnStored: func(art provision.Artifact) {
			n.mod.AnnounceArtifact(art)
		},
	})
	if err != nil {
		panic(err) // all fields are wired above; unreachable
	}
	p.deployer = deployer
	n.prov = p

	// Serve the local store to the cluster through the standard remote
	// stack: the exported registration announces the provisioning
	// endpoint through the replicated directory like any other service.
	if _, err := n.host.SystemContext().RegisterSingle(provision.ServiceClass,
		provision.NewRepoService(store), module.Properties{
			module.PropServiceExported:     true,
			module.PropServiceExportedName: provision.ServiceName,
		}); err != nil {
		panic(fmt.Sprintf("cluster: registering provisioning service: %v", err))
	}

	// Replication duty is delta-driven: the directory's artifact stream
	// delivers exact changes, so only the affected digest is re-examined
	// — no full-index rescan on every record change, and a converged
	// anti-entropy resync (which emits nothing) costs nothing here. The
	// full pass remains for view changes (a departed holder may have
	// dropped many digests below the factor at once) and runs periodically
	// as the retry path for repair fetches that failed while every replica
	// was unreachable.
	n.mod.OnArtifactChange(func(ch migrate.ArtifactChange) { p.recheckDigest(ch.Info.Digest) })
	n.member.OnViewChange(func(gcs.View) { p.recheckReplication() })
	if n.cluster.provRecheckEvery > 0 {
		p.recheckTimer = n.cluster.eng.Every(n.cluster.provRecheckEvery, p.recheckReplication)
	}

	n.cluster.metrics.RegisterProvider("provision:"+n.cfg.ID, counters.Provider())
}

// Provision returns the node's provisioning runtime handle.
func (n *Node) Provision() *NodeProvision { return &NodeProvision{p: n.prov} }

// NodeProvision is the public face of a node's provisioning runtime.
type NodeProvision struct {
	p *nodeProvision
}

// Store returns the node's artifact store.
func (np *NodeProvision) Store() *provision.Store { return np.p.store }

// Counters returns the node's provisioning counters.
func (np *NodeProvision) Counters() *services.ProvisionCounters { return np.p.counters }

// Publish verifies and stores an artifact on this node, registers its
// definition locally (replacing any previous definition at the location,
// like replacing a JAR) and advertises the holding cluster-wide.
// Proactive replication to the cluster's replication factor follows from
// the advertisement. Nothing is advertised if any step fails.
func (np *NodeProvision) Publish(art provision.Artifact, payload []byte) error {
	p := np.p
	if err := p.verifier.Verify(art, payload); err != nil {
		p.counters.VerificationRejections.Add(1)
		return err
	}
	if err := p.store.Add(art, payload); err != nil {
		return err
	}
	if err := p.deployer.RegisterLocal(art); err != nil {
		p.store.Remove(art.Digest)
		return err
	}
	p.node.mod.AnnounceArtifact(art)
	return nil
}

// Deploy fetches, verifies, resolves, installs and optionally starts the
// bundle at location in this node's host framework; cb fires with the
// outcome. Safe to call from simulation callbacks.
func (np *NodeProvision) Deploy(location string, start bool, cb func(error)) {
	np.p.deployer.Deploy(location, start, cb)
}

// EnsureDefinition makes location installable on this node (fetching the
// artifact on demand) without installing it.
func (np *NodeProvision) EnsureDefinition(location string, cb func(error)) {
	np.p.deployer.EnsureDefinition(location, cb)
}

// ensureBundleLocations is the migrate EnsureBundles hook: every location
// a restoring checkpoint needs is made installable, fetching missing
// artifacts (and their Require-Bundle closures) from live replicas.
// Locations with no definition and no artifact anywhere fail the restore.
func (n *Node) ensureBundleLocations(locations []string, done func(error)) {
	p := n.prov
	if p == nil {
		done(nil)
		return
	}
	var step func(i int)
	step = func(i int) {
		if i >= len(locations) {
			done(nil)
			return
		}
		p.deployer.EnsureClosure(locations[i], func(_ []string, err error) {
			if err != nil {
				done(err)
				return
			}
			step(i + 1)
		})
	}
	step(0)
}

// recheckReplication runs the replication-factor check over every digest
// the directory advertises — the view-change and periodic-retry path.
// Incremental record changes go through recheckDigest instead.
func (p *nodeProvision) recheckReplication() {
	seen := make(map[string]bool)
	var digests []string
	for _, art := range p.node.mod.Directory().Artifacts() {
		if !seen[art.Digest] {
			seen[art.Digest] = true
			digests = append(digests, art.Digest)
		}
	}
	sort.Strings(digests)
	for _, digest := range digests {
		p.recheckDigest(digest)
	}
}

// recheckDigest enforces the replication factor for one digest: when the
// directory advertises fewer live holders than the factor, the first
// missing candidates in node-id order fetch a copy. Every replica
// computes the same assignment from the same directory and view, so the
// duty is decentralized yet non-overlapping.
func (p *nodeProvision) recheckDigest(digest string) {
	view := p.node.member.View()
	liveSet := make(map[string]bool, len(view.Members))
	for _, id := range view.Members {
		liveSet[id] = true
	}
	if !liveSet[p.node.cfg.ID] {
		return
	}
	holders := p.node.mod.Directory().ArtifactReplicas(digest)
	if len(holders) == 0 {
		return // fully withdrawn (or pruned with its last holder)
	}
	holderSet := make(map[string]bool, len(holders))
	live := 0
	for _, h := range holders {
		holderSet[h.Node] = true
		if liveSet[h.Node] {
			live++
		}
	}
	if holderSet[p.node.cfg.ID] || p.store.Has(digest) || live >= replicationFactor {
		return
	}
	// Candidates: live non-holders in node-id order; the first
	// (replicationFactor - live) of them owe a copy.
	var candidates []string
	for _, id := range view.Members {
		if !holderSet[id] {
			candidates = append(candidates, id)
		}
	}
	sort.Strings(candidates)
	need := replicationFactor - live
	for i, id := range candidates {
		if i >= need {
			break
		}
		if id == p.node.cfg.ID {
			p.replicate(holders[0])
		}
	}
}

// teardownProvision stops the node's provisioning runtime (crash or
// power-off): the periodic replication recheck must not keep firing for
// a node that left the cluster.
func (n *Node) teardownProvision() {
	if n.prov != nil && n.prov.recheckTimer != nil {
		n.prov.recheckTimer.Cancel()
		n.prov.recheckTimer = nil
	}
}

// replicate fetches one artifact for replication-factor repair and
// announces the new holding (via the deployer's OnStored hook). The
// fetch is keyed by digest, so a location republished under new content
// still gets every digest repaired.
func (p *nodeProvision) replicate(art provision.Artifact) {
	if p.fetching[art.Digest] {
		return
	}
	p.fetching[art.Digest] = true
	p.deployer.EnsureArtifact(art, func(error) {
		delete(p.fetching, art.Digest)
	})
}
