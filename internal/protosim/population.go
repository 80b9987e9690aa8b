package protosim

import (
	"fmt"
	"math/rand"
	"sort"

	"dosgi/internal/provision"
	"dosgi/internal/remote"
)

// healthComponents are the per-node components the synthetic health
// population covers (mirroring the planes a dosgid reports on).
var healthComponents = []string{"remote", "events", "resources"}

// buildPopulation fabricates the whole synthetic cluster from the seed:
// nodes, replicated service endpoints, content-addressed artifacts and
// per-node health records. Everything is a pure function of Config, so
// two simulators built from the same Config expose identical
// directories, digests and health views.
func (s *Sim) buildPopulation() error {
	cfg := s.cfg
	rng := rand.New(rand.NewSource(cfg.Seed))
	s.rng = rng

	// Nodes. Addresses default to TEST-NET-3 — deliberately unroutable,
	// because most fake nodes exist only as directory records; the first
	// NodeListeners nodes get a real loopback address once their
	// listener binds (New overwrites addr in listenNode).
	s.nodes = make([]*simNode, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		n := &simNode{
			name:  fmt.Sprintf("node-%03d", i),
			addr:  fmt.Sprintf("203.0.113.%d:%d", 1+i%250, 7101+i),
			state: nodeLive,
		}
		s.nodes[i] = n
		s.byName[n.name] = n
	}

	// Services: Nodes*ServicesPerNode endpoint records spread over
	// distinct names, each replicated on Replication consecutive nodes.
	total := cfg.Nodes * cfg.ServicesPerNode / cfg.Replication
	if total < 1 {
		total = 1
	}
	s.serviceNames = make([]string, total)
	for i := 0; i < total; i++ {
		name := fmt.Sprintf("app.svc-%04d", i)
		s.serviceNames[i] = name
		holders := make(map[string]struct{}, cfg.Replication)
		for j := 0; j < cfg.Replication; j++ {
			n := s.nodes[(i+j)%cfg.Nodes]
			holders[n.name] = struct{}{}
			n.services = append(n.services, name)
		}
		s.endpoints[name] = holders
	}

	// Artifacts: real signed, chunked, content-addressed blobs built
	// through provision.NewArtifact over seeded payloads, held by
	// ArtifactHolders consecutive nodes starting at the artifact index —
	// so artifact 0's replicas coincide with the nodes that get real
	// listeners, and a fetch test can dial them.
	key := provision.SampleKeyring()[provision.SampleSigner]
	for k := 0; k < cfg.Artifacts; k++ {
		blob := make([]byte, 2048+rng.Intn(30*1024))
		rng.Read(blob)
		img := &provision.BundleImage{
			ManifestText: fmt.Sprintf(
				"Bundle-SymbolicName: sim.artifact-%03d\nBundle-Version: 1.%d.0\n", k, k),
			DataFiles: map[string][]byte{"blob.bin": blob},
		}
		location := fmt.Sprintf("sim:artifact-%03d", k)
		art, payload, err := provision.NewArtifact(location, img,
			provision.SampleSigner, key, cfg.ArtifactChunk)
		if err != nil {
			return fmt.Errorf("protosim: artifact %d: %w", k, err)
		}
		if err := s.store.Add(art, payload); err != nil {
			return fmt.Errorf("protosim: artifact %d: %w", k, err)
		}
		s.arts = append(s.arts, art)
		for j := 0; j < cfg.ArtifactHolders; j++ {
			n := s.nodes[(k+j)%cfg.Nodes]
			n.digests = append(n.digests, art.Digest)
		}
	}

	// Health: every node reports OK on each component, with a seeded
	// sprinkling of degradations so HEALTH output isn't all green.
	for _, n := range s.nodes {
		for _, comp := range healthComponents {
			ev := remote.ServiceEvent{Service: comp, Node: n.name, Addr: "OK"}
			if rng.Intn(40) == 0 {
				ev.Addr = "DEGRADED"
				ev.Instance = "sim: synthetic load"
			}
			s.health.Apply(ev)
		}
	}
	return nil
}

// SetHealth folds one health observation into the simulator's view with
// the daemon's exactly-once semantics (admin.HealthView.Apply); an empty
// status withdraws the record.
func (s *Sim) SetHealth(node, component, status, cause string) {
	ev := remote.ServiceEvent{Service: component, Node: node, Addr: status, Instance: cause}
	if status == "" {
		ev.Type = remote.ServiceUnregistering
	}
	s.health.Apply(ev)
}

// randomLiveEndpointLocked picks a seeded-random live (service, node)
// replica for storm traffic. Callers hold s.mu.
func (s *Sim) randomLiveEndpointLocked() (remote.ServiceEvent, bool) {
	if len(s.serviceNames) == 0 {
		return remote.ServiceEvent{}, false
	}
	start := s.rng.Intn(len(s.serviceNames))
	for i := 0; i < len(s.serviceNames); i++ {
		svc := s.serviceNames[(start+i)%len(s.serviceNames)]
		holders := s.endpoints[svc]
		if len(holders) == 0 {
			continue
		}
		pick := s.rng.Intn(len(holders))
		names := make([]string, 0, len(holders))
		for name := range holders {
			names = append(names, name)
		}
		// Map order is randomized anyway; sort for a seed-stable pick.
		sort.Strings(names)
		name := names[pick]
		return remote.ServiceEvent{
			Service: svc, Node: name, Addr: s.byName[name].addr,
		}, true
	}
	return remote.ServiceEvent{}, false
}
