// Package cluster assembles the full platform on simulated hardware: each
// Node runs a resource-aware runtime (vjvm), a host OSGi framework with the
// shared base services, the Instance Manager, the Monitoring and Migration
// modules and a group-communication member — the complete stack of the
// paper's Figure 3 — wired to the shared network, SAN and group directory.
// The Cluster type creates nodes, deploys customers, injects faults and
// exposes the measurement points the experiments use.
package cluster

import (
	"fmt"
	"sort"
	"sync"

	"dosgi/internal/autonomic"
	"dosgi/internal/clock"
	"dosgi/internal/core"
	"dosgi/internal/gcs"
	"dosgi/internal/health"
	"dosgi/internal/migrate"
	"dosgi/internal/module"
	"dosgi/internal/monitor"
	"dosgi/internal/netsim"
	"dosgi/internal/obs"
	"dosgi/internal/remote"
	"dosgi/internal/services"
	"dosgi/internal/vjvm"
)

// GCSPort is the port group-communication members bind on every node.
const GCSPort = 7000

// ShardGCSPort is the port directory-shard group members bind on every
// node: shard s listens on ShardGCSPort+s (the range up to RemotePort
// leaves room for 99 shards).
const ShardGCSPort = 7001

// shardGroupName names shard s's group — the salt mixed into each
// member's ranked id so every shard group elects a different
// coordinator (see gcs.RankedID).
func shardGroupName(s int) string { return fmt.Sprintf("dir-shard-%02d", s) }

// NodeConfig sizes a node.
type NodeConfig struct {
	ID string
	// IP is the node's primary address (management + GCS traffic).
	IP netsim.IP
	// CPUCapacity in millicores (default 4000).
	CPUCapacity vjvm.Millicores
	// MemoryBytes of RAM (default 8 GiB).
	MemoryBytes int64
	// PlacementMode selects the redeployment shortage policy.
	PlacementMode migrate.PlacementMode
}

func (c *NodeConfig) applyDefaults() {
	if c.IP == "" {
		c.IP = netsim.IP("10.0.0." + c.ID)
	}
	if c.CPUCapacity == 0 {
		c.CPUCapacity = 4000
	}
	if c.MemoryBytes == 0 {
		c.MemoryBytes = 8 << 30
	}
	if c.PlacementMode == 0 {
		c.PlacementMode = migrate.BestEffort
	}
}

// Node is one physical machine of the cluster.
type Node struct {
	cluster *Cluster
	cfg     NodeConfig

	vm      *vjvm.VJVM
	nic     *netsim.NIC
	host    *module.Framework
	defs    *module.DefinitionRegistry
	manager *core.Manager
	member  *gcs.Member
	// shardMembers are the per-shard directory group members (empty in
	// the single-group layout). Each joins its own group under a ranked
	// id so shard coordinators spread across nodes.
	shardMembers []*gcs.Member
	mod          *migrate.Module
	mon          *monitor.Monitor
	logSvc       *services.LogService
	exporter     *remote.Exporter
	remoteSrv    *remote.NetsimServer
	rtransport   *remote.NetsimTransport
	invoker      *remote.Invoker
	importer     *remote.Importer
	broker       *remote.EventBroker
	prov         *nodeProvision
	obsPlane     *obs.Plane

	// Health plane: the evaluator ticking rules over the obs plane, its
	// announcement timer, the dosgi.health alert broker and the autonomic
	// loop demoting CRITICAL remote paths.
	healthEval   *health.Evaluator
	healthBroker *remote.EventBroker
	healthTimer  clock.Timer
	healthCtl    *autonomic.Controller

	// instExp exports services registered inside started virtual
	// frameworks (one exporter per instance).
	instExp *remote.ExporterSet

	mu       sync.Mutex
	powered  bool
	httpSvcs map[core.InstanceID][]*services.HTTPService
}

// ID returns the node id.
func (n *Node) ID() string { return n.cfg.ID }

// IP returns the node's primary address.
func (n *Node) IP() netsim.IP { return n.cfg.IP }

// VM returns the node's runtime.
func (n *Node) VM() *vjvm.VJVM { return n.vm }

// Host returns the node's host framework.
func (n *Node) Host() *module.Framework { return n.host }

// Definitions returns the node-local definition registry (layered over
// the cluster's shared base registry).
func (n *Node) Definitions() *module.DefinitionRegistry { return n.defs }

// Manager returns the node's instance manager.
func (n *Node) Manager() *core.Manager { return n.manager }

// Member returns the node's group member.
func (n *Node) Member() *gcs.Member { return n.member }

// ShardMembers returns the node's directory-shard group members (empty
// in the single-group layout).
func (n *Node) ShardMembers() []*gcs.Member { return n.shardMembers }

// DirectoryMsgCounts sums the wire messages sent and received by every
// group member carrying directory traffic on this node — the main
// member plus all shard members. E13 aggregates these per node to show
// sub-linear per-node broadcast volume as shards are added.
func (n *Node) DirectoryMsgCounts() (sent, received int64) {
	st := n.directoryGCSStats()
	return st.MsgsSent, st.MsgsReceived
}

// directoryGCSStats sums the message counters and the total-order state
// sizes (retransmission log, dedup runs held above a gap) over the main
// member and every shard member; the other fields are left zero.
func (n *Node) directoryGCSStats() gcs.MemberStats {
	var sum gcs.MemberStats
	for _, m := range append([]*gcs.Member{n.member}, n.shardMembers...) {
		st := m.Stats()
		sum.MsgsSent += st.MsgsSent
		sum.MsgsReceived += st.MsgsReceived
		sum.TotalLogSize += st.TotalLogSize
		sum.DedupHeld += st.DedupHeld
	}
	return sum
}

// Migration returns the node's migration module.
func (n *Node) Migration() *migrate.Module { return n.mod }

// Monitor returns the node's monitoring module.
func (n *Node) Monitor() *monitor.Monitor { return n.mon }

// Obs returns the node's observability plane (tracer, span store and the
// hot-path latency histograms). The plane survives a crash — the span
// store remains queryable for post-mortem trace assembly.
func (n *Node) Obs() *obs.Plane { return n.obsPlane }

// Log returns the node's shared log service.
func (n *Node) Log() *services.LogService { return n.logSvc }

// Powered reports whether the node is on.
func (n *Node) Powered() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.powered
}

// HTTPServices returns the HTTP endpoints bound for an instance on this
// node.
func (n *Node) HTTPServices(id core.InstanceID) []*services.HTTPService {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]*services.HTTPService(nil), n.httpSvcs[id]...)
}

// Instances returns the ids of instances currently managed by this node,
// sorted.
func (n *Node) Instances() []core.InstanceID {
	var out []core.InstanceID
	for _, inst := range n.manager.List() {
		out = append(out, inst.ID())
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// domainID names the vjvm resource domain of an instance.
func domainID(id core.InstanceID) string { return "instance:" + string(id) }

// hooks builds the instance-manager hooks binding node resources.
func (n *Node) hooks() core.Hooks {
	return core.Hooks{
		OnCreate: func(inst *core.Instance) error {
			desc := inst.Descriptor()
			res := desc.Resources
			weight := res.Weight
			if weight < 1 {
				weight = 1
			}
			_, err := n.vm.CreateDomain(domainID(desc.ID),
				vjvm.WithWeight(weight),
				vjvm.WithCPULimit(vjvm.Millicores(res.CPUMillicores)),
				vjvm.WithMemoryLimit(res.MemoryBytes),
				vjvm.WithDiskLimit(res.DiskBytes),
			)
			return err
		},
		OnStart: func(inst *core.Instance) error {
			return n.bindEndpoints(inst)
		},
		OnStop: func(inst *core.Instance) error {
			n.unbindEndpoints(inst.ID())
			return nil
		},
		OnDestroy: func(inst *core.Instance) error {
			n.unbindEndpoints(inst.ID())
			_ = n.vm.RemoveDomain(domainID(inst.ID()))
			return nil
		},
	}
}

// bindEndpoints acquires the instance's addresses and starts its HTTP
// services. An endpoint IP that is free is claimed by this node (Figure
// 5's model: the service address follows the instance).
func (n *Node) bindEndpoints(inst *core.Instance) error {
	desc := inst.Descriptor()
	var svcs []*services.HTTPService
	for _, ep := range desc.Endpoints {
		ip := netsim.IP(ep.IP)
		if owner, owned := n.cluster.net.OwnerOf(ip); !owned {
			if err := n.cluster.net.AssignIP(ip, n.cfg.ID); err != nil {
				return err
			}
		} else if owner != n.cfg.ID {
			return fmt.Errorf("cluster: endpoint %s of %s is held by node %s", ip, desc.ID, owner)
		}
		svc := services.NewHTTPService(n.cluster.eng, n.nic,
			netsim.Addr{IP: ip, Port: ep.Port}, n.vm, domainID(desc.ID))
		svc.RegisterServlet("/", nil)
		if err := svc.Start(); err != nil {
			return err
		}
		svcs = append(svcs, svc)
	}
	n.mu.Lock()
	n.httpSvcs[desc.ID] = svcs
	n.mu.Unlock()
	return nil
}

// unbindEndpoints stops the instance's HTTP services and releases IPs no
// other local instance uses.
func (n *Node) unbindEndpoints(id core.InstanceID) {
	n.mu.Lock()
	svcs := n.httpSvcs[id]
	delete(n.httpSvcs, id)
	stillUsed := make(map[netsim.IP]bool)
	for _, other := range n.httpSvcs {
		for _, svc := range other {
			stillUsed[svc.Addr().IP] = true
		}
	}
	n.mu.Unlock()
	for _, svc := range svcs {
		svc.Stop()
		ip := svc.Addr().IP
		if ip == n.cfg.IP || stillUsed[ip] {
			continue
		}
		if owner, ok := n.cluster.net.OwnerOf(ip); ok && owner == n.cfg.ID {
			n.cluster.net.ReleaseIP(ip)
		}
	}
}
