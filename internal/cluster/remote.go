// Remote-services wiring: every node runs the full import/export stack of
// internal/remote on the simulated fabric. Services registered with
// service.exported=true — in a node's host framework OR in any virtual
// framework hosted on it — are announced through the replicated migrate
// directory (total-order broadcast) and become invocable from every other
// node through pooled, failover-aware netsim connections. Endpoint records
// carry the owning instance id, so a migrated or redeployed instance's
// services are re-announced from the new host node and client proxies
// fail over transparently. Each node also runs a dosgi.events broker fed
// by the replicated directory's change stream: subscribers on any node
// hear REGISTERED/MODIFIED/UNREGISTERING for every service in the cluster
// without polling, and the invoker prunes pooled connections eagerly when
// an address stops hosting services.
package cluster

import (
	"fmt"
	"time"

	"dosgi/internal/core"
	"dosgi/internal/gcs"
	"dosgi/internal/migrate"
	"dosgi/internal/module"
	"dosgi/internal/netsim"
	"dosgi/internal/obs"
	"dosgi/internal/remote"
)

// RemotePort is the remote-services listener port on every node.
const RemotePort = 7100

// RemoteCallTimeout bounds one call attempt; it sits well inside the
// default failure-detector window (4 × 50ms) so a partitioned call fails
// over before the membership view changes. A timed-out attempt is also
// evidence against its node (gcs.Member.Suspect), which the group
// confirms by probing before it acts.
const RemoteCallTimeout = 100 * time.Millisecond

// EventRenewInterval is how often cluster subscribers renew their event
// subscription lease; a partitioned event server is abandoned at most one
// interval plus one call timeout after the split. Renews double as the
// delivery acknowledgements that replenish the broker's credit window.
const EventRenewInterval = 500 * time.Millisecond

// EventWindow is the credit window cluster subscribers advertise: the
// broker keeps at most this many pushes unacknowledged before suspending
// delivery (bounding its memory behind a slow subscriber) and resumes
// from its replay ring once renews acknowledge progress.
const EventWindow = 128

// directoryResolver resolves service replicas from the node's replica of
// the cluster directory.
type directoryResolver struct {
	mod *migrate.Module
}

func (r directoryResolver) Endpoints(service string) []remote.Endpoint {
	infos := r.mod.Directory().EndpointsFor(service)
	eps := make([]remote.Endpoint, len(infos))
	for i, info := range infos {
		eps[i] = remote.Endpoint{Node: info.Node, Addr: info.Addr}
	}
	return eps
}

// remoteAddr is the node's remote-services listener address.
func remoteAddr(ip netsim.IP) string {
	return fmt.Sprintf("%s:%d", ip, RemotePort)
}

// setupRemote assembles the node's remote runtime. Call after the host
// framework and migration module exist but BEFORE the group member starts,
// so the view hook never misses a change.
func (n *Node) setupRemote() error {
	// The observability plane comes first: every layer below hangs its
	// histograms and spans off it. The sim engine's virtual clock is the
	// shared time base, so spans recorded on different nodes align.
	n.obsPlane = obs.NewPlane(n.cfg.ID, n.cluster.eng.Now)

	exporter, err := remote.NewExporter(n.host.SystemContext())
	if err != nil {
		return err
	}
	n.exporter = exporter

	// The event broker replays the node's directory replica to new
	// subscribers (the synthetic resync) and lives behind the same
	// listener as invocations.
	n.broker = remote.NewEventBroker(n.cluster.eng,
		remote.WithBrokerAckHistogram(n.obsPlane.EventAckLag),
		remote.WithEventSnapshot(func() []remote.ServiceEvent {
			var evs []remote.ServiceEvent
			for _, info := range n.mod.Directory().Endpoints() {
				evs = append(evs, remote.ServiceEvent{
					Service: info.Service, Node: info.Node,
					Addr: info.Addr, Instance: info.Instance,
				})
			}
			return evs
		}))

	server := remote.NewNetsimServer(n.nic,
		netsim.Addr{IP: n.cfg.IP, Port: RemotePort},
		remote.NewEventDispatcher(
			remote.NewDispatcher(remote.NewCompositeSource(n.exporter, n.instExp),
				remote.WithDispatcherTracer(n.obsPlane.Tracer)), n.broker, n.newHealthBroker()),
		remote.WithNetsimServerClock(n.cluster.eng.Now))
	if err := server.Start(); err != nil {
		exporter.Close()
		return err
	}
	n.remoteSrv = server

	// Broker delivery counters (replay hits/misses, suspensions, lagging
	// subscriptions) surface per node alongside the provisioning metrics.
	n.cluster.metrics.RegisterProvider("events:"+n.cfg.ID, n.broker.Provider())

	transport := remote.NewNetsimTransport(n.cluster.eng, n.nic, n.cfg.IP,
		remote.WithNetsimCallTimeout(RemoteCallTimeout),
		remote.WithNetsimFrameHistogram(n.obsPlane.FrameRTT))
	n.rtransport = transport
	pool := remote.NewPool(transport,
		remote.WithPoolObserver(n.cluster.eng.Now, n.obsPlane.PoolWait))
	n.invoker = remote.NewInvoker(pool, directoryResolver{mod: n.mod},
		remote.WithInvokerObservability(n.obsPlane.Tracer, n.obsPlane.InvokerCall),
		remote.WithTimeoutEvidence(n.member.Suspect))
	n.importer = remote.NewImporter(n.host.SystemContext(), n.invoker)

	// The plane's histograms and span-store depth surface per node, next
	// to the domain providers.
	n.cluster.metrics.RegisterProvider("obs:"+n.cfg.ID, n.obsPlane.Provider())

	// Host-framework exports flow into the replicated directory;
	// withdrawals flow out; property changes re-announce (MODIFIED).
	exporter.OnChange(func(ev remote.ExportEvent) {
		if ev.Exported {
			n.mod.AnnounceEndpoint(ev.Name, remoteAddr(n.cfg.IP))
		} else {
			n.mod.WithdrawEndpoint(ev.Name)
			n.reannounceSurvivor(ev.Name)
		}
	})

	// Virtual-framework exports: every started instance gets its own
	// exporter over its child framework, announcing endpoints stamped
	// with the instance id. A migrated instance re-registers its services
	// on the new node when the restored framework starts, so the records
	// reappear there without extra machinery.
	n.manager.OnEvent(func(ev core.Event) {
		switch ev.Type {
		case core.EventStarted:
			n.attachInstanceExporter(ev.Instance)
		case core.EventStopped, core.EventDestroyed:
			n.instExp.Detach(string(ev.Instance.ID()))
		}
	})

	// The replicated directory's change stream feeds the local event
	// broker — subscribers of THIS node hear about every endpoint in the
	// cluster — and drives eager pool maintenance: when an address stops
	// hosting anything, its pooled connections are severed now rather
	// than on the next failed call.
	n.mod.OnEndpointChange(func(ch migrate.EndpointChange) {
		var typ remote.ServiceEventType
		switch ch.Type {
		case migrate.EndpointAdded:
			typ = remote.ServiceRegistered
		case migrate.EndpointUpdated:
			typ = remote.ServiceModified
		case migrate.EndpointRemoved:
			typ = remote.ServiceUnregistering
		default:
			return
		}
		n.broker.Publish(remote.ServiceEvent{
			Type: typ, Service: ch.Info.Service, Node: ch.Info.Node,
			Addr: ch.Info.Addr, Instance: ch.Info.Instance,
		})
		if ch.Type == migrate.EndpointRemoved && ch.Info.Node != n.cfg.ID &&
			!n.mod.Directory().AddrInUse(ch.Info.Addr) {
			n.invoker.DropEndpoint(ch.Info.Addr)
		}
	})

	// View changes sever pooled connections to departed nodes. This
	// handler is registered before the migration module's, so it still
	// sees the dead nodes' endpoint records and can map them to pooled
	// addresses.
	n.member.OnViewChange(func(v gcs.View) {
		var all []remote.Endpoint
		for _, info := range n.mod.Directory().Endpoints() {
			all = append(all, remote.Endpoint{Node: info.Node, Addr: info.Addr})
		}
		n.invoker.PruneNodes(v.Members, all)
	})

	// The health plane rides on everything assembled above: the evaluator
	// over the obs plane, records into the migrate directory, alerts out
	// of the dosgi.health broker, demotion into the invoker.
	n.setupHealth()
	return nil
}

// attachInstanceExporter starts exporting a started instance's
// service.exported=true registrations cluster-wide (the ExporterSet
// handles the attach/detach races of instance lifecycle).
func (n *Node) attachInstanceExporter(inst *core.Instance) {
	vf := inst.Virtual()
	if vf == nil {
		return
	}
	instance := string(inst.ID())
	n.instExp.Attach(instance, vf.Framework().SystemContext(),
		func(ev remote.ExportEvent) {
			if ev.Exported {
				n.mod.AnnounceEndpointFor(ev.Name, remoteAddr(n.cfg.IP), instance)
			} else {
				n.mod.WithdrawEndpointFor(ev.Name, instance)
				n.reannounceSurvivor(ev.Name)
			}
		},
		func() bool { return inst.State() == core.InstanceRunning })
}

// reannounceSurvivor re-announces name from whichever local exporter
// still provides it after a withdrawal. Host and instance exports share
// the per-node (service, node) directory slot, so after one owner
// withdraws, a colliding survivor must reclaim the record.
func (n *Node) reannounceSurvivor(name string) {
	if _, ok := n.exporter.Lookup(name); ok {
		n.mod.AnnounceEndpoint(name, remoteAddr(n.cfg.IP))
		return
	}
	for _, ke := range n.instExp.Snapshot() {
		if _, ok := ke.Exp.Lookup(name); ok {
			n.mod.AnnounceEndpointFor(name, remoteAddr(n.cfg.IP), ke.Key)
			return
		}
	}
}

// teardownRemote stops the node's remote runtime (crash or power-off).
func (n *Node) teardownRemote() {
	n.teardownHealth()
	if n.remoteSrv != nil {
		n.remoteSrv.Stop()
	}
	if n.instExp != nil {
		n.instExp.CloseAll()
	}
	if n.invoker != nil {
		n.invoker.Pool().Close()
	}
}

// Exporter returns the node's host-framework remote-service exporter.
func (n *Node) Exporter() *remote.Exporter { return n.exporter }

// Invoker returns the node's remote-service invoker.
func (n *Node) Invoker() *remote.Invoker { return n.invoker }

// EventBroker returns the node's dosgi.events broker.
func (n *Node) EventBroker() *remote.EventBroker { return n.broker }

// RemoteAddr returns the node's remote-services listener address.
func (n *Node) RemoteAddr() string { return remoteAddr(n.cfg.IP) }

// ExportService registers svc in the node's host framework marked for
// export under name, making it invocable from every node.
func (n *Node) ExportService(name, class string, svc any) (*module.ServiceRegistration, error) {
	return n.host.SystemContext().RegisterSingle(class, svc, module.Properties{
		module.PropServiceExported:     true,
		module.PropServiceExportedName: name,
	})
}

// ImportService registers a client proxy for a remotely exported service
// into this node's host framework and returns it.
func (n *Node) ImportService(class, service string) (*remote.Proxy, error) {
	return n.importer.ImportService(class, service)
}

// InvokeRemote calls service.method from this node asynchronously; cb
// fires with the results or the final post-failover error.
func (n *Node) InvokeRemote(service, method string, args []any, cb func([]any, error)) {
	n.invoker.Go(service, method, args, cb)
}

// SubscribeEvents opens a remote service-event subscription from this
// node: onEvent receives deduplicated REGISTERED/MODIFIED/UNREGISTERING
// events for every matching service in the cluster. addrs are the
// candidate event servers walked on failure (default: this node's own
// listener — any node can serve the cluster-wide stream, since brokers
// are fed from the replicated directory).
func (n *Node) SubscribeEvents(filter string, onEvent func(remote.ServiceEvent), addrs ...string) (*remote.Subscriber, error) {
	if len(addrs) == 0 {
		addrs = []string{n.RemoteAddr()}
	}
	return remote.NewSubscriber(remote.SubscriberConfig{
		Transport:  n.rtransport,
		Sched:      n.cluster.eng,
		Addrs:      addrs,
		Filter:     filter,
		OnEvent:    onEvent,
		RenewEvery: EventRenewInterval,
		Window:     EventWindow,
	})
}
