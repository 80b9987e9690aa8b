// Health-plane wiring: every node runs a health evaluator ticking
// threshold rules over its own observability plane (invoker-call and
// pool-wait latency windows), event-broker delivery state, monitor
// threshold breaches and SLA violations, folding them into per-component
// OK/DEGRADED/CRITICAL records. Records replicate as the third family on
// the unified migrate directory — exact deltas, anti-entropy, dead-holder
// pruning — so `HealthOn(node)` answers from ANY node without polling the
// subject. State transitions additionally push as a durable alert stream
// over a dedicated dosgi.health broker (same replay-window + credit
// machinery as dosgi.events), and an autonomic rule closes the loop: a
// CRITICAL remote-path record demotes that node's replicas to last choice
// in the invoker's failover ordering until the record heals.
package cluster

import (
	"time"

	"dosgi/internal/autonomic"
	"dosgi/internal/health"
	"dosgi/internal/migrate"
	"dosgi/internal/policy"
	"dosgi/internal/remote"
)

// HealthTickInterval is how often each node evaluates its health rules
// (and how often the autonomic health loop re-examines the replicated
// records).
const HealthTickInterval = 500 * time.Millisecond

// Health thresholds over the node's hot-path latency windows. The
// interval windows (obs.Window) make records HEAL: a latency storm that
// passes leaves the next window clean, unlike the cumulative histograms.
const (
	// HealthCallP99Degraded / Critical bound the per-interval p99 of the
	// full client call path. RemoteCallTimeout (100ms) dominates a
	// partition-stricken interval, so Critical sits just under it.
	HealthCallP99Degraded = 50 * time.Millisecond
	HealthCallP99Critical = 95 * time.Millisecond
	// HealthPoolWaitDegraded / Critical bound the per-interval p99 of
	// connection-pool acquisition.
	HealthPoolWaitDegraded = 25 * time.Millisecond
	HealthPoolWaitCritical = 80 * time.Millisecond
)

// Health components every node reports, one replicated record each.
const (
	// HealthComponentRemote is the remote-call path (invoker + pool).
	HealthComponentRemote = "remote"
	// HealthComponentEvents is the node's event-broker delivery health.
	HealthComponentEvents = "events"
	// HealthComponentResources is the monitor's threshold-breach state.
	HealthComponentResources = "resources"
	// HealthComponentSLA tracks fresh SLA violations of local instances.
	HealthComponentSLA = "sla"
)

// healthPolicy is the autonomic closed loop over the replicated health
// records: a CRITICAL (level 2) remote-path record of another node
// demotes that node's replicas to last-resort in this node's invoker
// ordering; anything better restores them. The engine's firing latch
// makes each a one-shot per transition.
const healthPolicy = `
when health.component == "remote" && health.level >= 2 { demote() }
when health.component == "remote" && health.level < 2 { restore() }
`

// healthEvent maps a replicated health record onto the wire event shape
// the dosgi.health stream shares with dosgi.events (PROTOCOL.md §6.4):
// Service carries the component, Addr the status and Instance the cause.
func healthEvent(typ remote.ServiceEventType, rec health.Record) remote.ServiceEvent {
	return remote.ServiceEvent{
		Type:     typ,
		Service:  rec.Component,
		Node:     rec.Node,
		Addr:     rec.Status.String(),
		Instance: rec.Cause,
	}
}

// newHealthBroker builds the node's dosgi.health broker. Its snapshot is
// the node's replica of the health-record family, so a fresh subscription
// resyncs to the full cluster health picture before live alerts flow —
// and a record whose status changed during a blackout re-delivers, since
// the subscriber's replica identity includes the status-carrying Addr.
func (n *Node) newHealthBroker() *remote.EventBroker {
	n.healthBroker = remote.NewEventBroker(n.cluster.eng,
		remote.WithBrokerService(remote.HealthServiceName),
		remote.WithEventSnapshot(func() []remote.ServiceEvent {
			var evs []remote.ServiceEvent
			for _, rec := range n.mod.Directory().HealthRecords() {
				evs = append(evs, healthEvent("", rec))
			}
			return evs
		}))
	return n.healthBroker
}

// setupHealth assembles the node's health evaluator, the record
// announcement tick, the alert bridge and the autonomic demotion loop.
// Call from setupRemote once the obs plane, invoker, monitor and
// migration module exist.
func (n *Node) setupHealth() {
	ev := health.New(n.cfg.ID)

	callWin := n.obsPlane.InvokerCall.NewWindow()
	ev.AddRule(health.Rule{
		Name: "call-p99", Component: HealthComponentRemote,
		Signal: func() (float64, bool) {
			s := callWin.Advance()
			if s.Count == 0 {
				return 0, false
			}
			return float64(s.P99), true
		},
		Degraded: float64(HealthCallP99Degraded),
		Critical: float64(HealthCallP99Critical),
		Raise:    1, Clear: 2,
	})
	poolWin := n.obsPlane.PoolWait.NewWindow()
	ev.AddRule(health.Rule{
		Name: "pool-wait-p99", Component: HealthComponentRemote,
		Signal: func() (float64, bool) {
			s := poolWin.Advance()
			if s.Count == 0 {
				return 0, false
			}
			return float64(s.P99), true
		},
		Degraded: float64(HealthPoolWaitDegraded),
		Critical: float64(HealthPoolWaitCritical),
		Raise:    1, Clear: 2,
	})
	// Broker delivery: suspended-at-exhausted-credit subscriptions mean
	// this node is outpacing (or has lost) its subscribers.
	ev.AddRule(health.Rule{
		Name: "broker-lagging", Component: HealthComponentEvents,
		Signal: func() (float64, bool) {
			return float64(n.broker.Stats().Lagging + n.healthBroker.Stats().Lagging), true
		},
		Degraded: 1, Critical: 4,
		Raise: 1, Clear: 2,
	})
	// Resource health follows the monitor's active threshold breaches.
	ev.AddRule(health.Rule{
		Name: "threshold-breach", Component: HealthComponentResources,
		Signal: func() (float64, bool) {
			return float64(len(n.mon.Breaches())), true
		},
		Degraded: 1, Critical: 3,
		Raise: 1, Clear: 1,
	})
	// SLA health counts violations newly recorded against instances this
	// node currently manages — a rate, so the record heals when the
	// violations stop.
	prevViolations := make(map[string]int)
	ev.AddRule(health.Rule{
		Name: "sla-violations", Component: HealthComponentSLA,
		Signal: func() (float64, bool) {
			fresh := 0
			for _, id := range n.Instances() {
				c := len(n.cluster.tracker.Violations(string(id)))
				if c > prevViolations[string(id)] {
					fresh += c - prevViolations[string(id)]
				}
				prevViolations[string(id)] = c
			}
			return float64(fresh), true
		},
		Degraded: 1, Critical: 5,
		Raise: 1, Clear: 2,
	})
	n.healthEval = ev

	// Replicated records change → alert on the dosgi.health stream.
	// Added/Updated both push (a remote node's first record is itself
	// news); Removed withdraws it — the dead-holder prune path included,
	// so subscribers never keep phantom health for departed nodes.
	n.mod.OnHealthChange(func(ch migrate.HealthChange) {
		var typ remote.ServiceEventType
		switch ch.Type {
		case migrate.Added:
			typ = remote.ServiceRegistered
		case migrate.Updated:
			typ = remote.ServiceModified
		case migrate.Removed:
			typ = remote.ServiceUnregistering
		default:
			return
		}
		n.healthBroker.Publish(healthEvent(typ, ch.Info))
	})

	// The evaluator tick: run the rules, then announce any record whose
	// replicated value would change — steady state announces nothing, so
	// anti-entropy stays silent.
	announced := make(map[string]health.Record)
	n.healthTimer = n.cluster.eng.Every(HealthTickInterval, func() {
		ev.Tick()
		for _, rec := range ev.Records() {
			if announced[rec.Component] != rec {
				announced[rec.Component] = rec
				n.mod.AnnounceHealth(rec)
			}
		}
	})

	// The autonomic closed loop: subjects are the OTHER nodes' replicated
	// health records; the policy demotes a CRITICAL remote path and
	// restores it on heal.
	eng := autonomic.New(n.cluster.eng, autonomic.WithInterval(HealthTickInterval))
	if err := eng.LoadPolicies(healthPolicy); err != nil {
		panic("cluster: health policy: " + err.Error())
	}
	n.healthSubjs = make(map[health.Record]autonomic.Subject)
	n.healthNext = make(map[health.Record]autonomic.Subject)
	eng.SetSubjects(n.healthSubjects)
	n.healthCtl = autonomic.NewController("health:"+n.cfg.ID, eng)
	n.healthCtl.Start()
}

// healthSubjects exposes every other node's replicated health records as
// autonomic subjects: health.component/node/status/level/cause plus the
// demote()/restore() verbs acting on this node's invoker. A record value's
// subject is built once and kept while the directory holds that value, so
// a steady tick builds none. It runs on the engine's turn, like every tick.
func (n *Node) healthSubjects() []autonomic.Subject {
	recs := n.mod.Directory().HealthRecords()
	out := make([]autonomic.Subject, 0, len(recs))
	for _, rec := range recs {
		if rec.Node == n.cfg.ID {
			continue
		}
		subj, ok := n.healthSubjs[rec]
		if !ok {
			node := rec.Node
			subj = autonomic.Subject{
				ID: rec.Component + "@" + rec.Node,
				Env: &policy.MapEnv{
					Vars: map[string]any{
						"health.component": rec.Component,
						"health.node":      rec.Node,
						"health.status":    rec.Status.String(),
						"health.level":     int64(rec.Status),
						"health.cause":     rec.Cause,
					},
					Funcs: map[string]func([]any) (any, error){
						"demote":  func([]any) (any, error) { n.setNodeDemoted(node, true); return nil, nil },
						"restore": func([]any) (any, error) { n.setNodeDemoted(node, false); return nil, nil },
					},
				},
			}
		}
		n.healthNext[rec] = subj
		out = append(out, subj)
	}
	clear(n.healthSubjs)
	n.healthSubjs, n.healthNext = n.healthNext, n.healthSubjs
	return out
}

// setNodeDemoted (de)demotes every endpoint address the directory maps to
// node in this node's invoker ordering.
func (n *Node) setNodeDemoted(node string, demoted bool) {
	seen := make(map[string]bool)
	for _, info := range n.mod.Directory().Endpoints() {
		if info.Node != node || seen[info.Addr] {
			continue
		}
		seen[info.Addr] = true
		if demoted {
			n.invoker.Demote(info.Addr)
		} else {
			n.invoker.Restore(info.Addr)
		}
	}
}

// teardownHealth stops the evaluator tick and the autonomic loop (crash
// or power-off). The replicated records survive until view-change pruning
// removes them — exactly like endpoint records.
func (n *Node) teardownHealth() {
	if n.healthTimer != nil {
		n.healthTimer.Cancel()
	}
	if n.healthCtl != nil {
		n.healthCtl.Stop()
	}
}

// HealthEvaluator returns the node's health evaluator.
func (n *Node) HealthEvaluator() *health.Evaluator { return n.healthEval }

// HealthBroker returns the node's dosgi.health alert broker.
func (n *Node) HealthBroker() *remote.EventBroker { return n.healthBroker }

// SubscribeHealth opens a dosgi.health subscription from this node:
// onEvent receives the resync snapshot of every replicated health record
// (REGISTERED, Addr = status, Instance = cause) followed by live
// transition alerts (MODIFIED) and withdrawals (UNREGISTERING). filter
// selects components ("remote", "sla", ... or "" for all). addrs are the
// candidate alert servers walked on failure (default: this node's own
// listener — any node serves the cluster-wide stream).
func (n *Node) SubscribeHealth(filter string, onEvent func(remote.ServiceEvent), addrs ...string) (*remote.Subscriber, error) {
	if len(addrs) == 0 {
		addrs = []string{n.RemoteAddr()}
	}
	return remote.NewSubscriber(remote.SubscriberConfig{
		Transport:  n.rtransport,
		Sched:      n.cluster.eng,
		Service:    remote.HealthServiceName,
		Addrs:      addrs,
		Filter:     filter,
		OnEvent:    onEvent,
		RenewEvery: EventRenewInterval,
		Window:     EventWindow,
	})
}
