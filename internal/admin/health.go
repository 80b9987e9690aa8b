package admin

import (
	"fmt"
	"sort"
	"sync"

	"dosgi/internal/clock"
	"dosgi/internal/remote"
)

// alertRingCap bounds the ALERTS ring buffer.
const alertRingCap = 64

// HealthView is a process's fleet health view: one record per
// component@node — its own evaluator's and every mirrored peer's on a
// daemon, the synthetic population's on the simulator — a bounded ring
// of recent transitions, and the dosgi.health broker that pushes each
// transition to subscribers and replays the view to new ones
// (PROTOCOL.md §6.4). A record is a remote.ServiceEvent whose Service is
// the component, Addr the status and Instance the cause.
type HealthView struct {
	broker *remote.EventBroker

	mu      sync.Mutex
	records map[string]remote.ServiceEvent // "component@node"
	alerts  []string                       // recent transitions, newest last
}

// NewHealthView builds an empty view and its dosgi.health broker; opts
// tune the broker (replay window, ring shards, lease).
func NewHealthView(sched clock.Scheduler, opts ...remote.BrokerOption) *HealthView {
	v := &HealthView{records: make(map[string]remote.ServiceEvent)}
	v.broker = remote.NewEventBroker(sched, append([]remote.BrokerOption{
		remote.WithBrokerService(remote.HealthServiceName),
		remote.WithEventSnapshot(v.Snapshot),
	}, opts...)...)
	return v
}

// Broker returns the view's dosgi.health broker, to be served beside the
// dosgi.events one.
func (v *HealthView) Broker() *remote.EventBroker { return v.broker }

// Apply folds one health record event into the view, deduplicating by
// record identity: an event that changes nothing is dropped, a change is
// stored, logged and published on the broker — typed REGISTERED for a
// first sighting, MODIFIED for a transition. An event typed
// UNREGISTERING withdraws the record (silently when it is unknown).
func (v *HealthView) Apply(ev remote.ServiceEvent) {
	key := ev.Service + "@" + ev.Node
	v.mu.Lock()
	last, known := v.records[key]
	if ev.Type == remote.ServiceUnregistering {
		if !known {
			v.mu.Unlock()
			return
		}
		delete(v.records, key)
	} else {
		if known && last.Addr == ev.Addr && last.Instance == ev.Instance {
			v.mu.Unlock()
			return
		}
		if known {
			ev.Type = remote.ServiceModified
		} else {
			ev.Type = remote.ServiceRegistered
		}
		v.records[key] = ev
	}
	v.alerts = append(v.alerts, fmt.Sprintf("%s %s node=%s status=%s cause=%s",
		ev.Type, ev.Service, ev.Node, ev.Addr, ev.Instance))
	if len(v.alerts) > alertRingCap {
		v.alerts = v.alerts[len(v.alerts)-alertRingCap:]
	}
	v.mu.Unlock()
	v.broker.Publish(ev)
}

// Snapshot returns every record, untyped, ordered by node then
// component — what a fresh dosgi.health subscriber receives before live
// alerts flow.
func (v *HealthView) Snapshot() []remote.ServiceEvent {
	v.mu.Lock()
	defer v.mu.Unlock()
	evs := make([]remote.ServiceEvent, 0, len(v.records))
	for _, ev := range v.records {
		ev.Type = ""
		evs = append(evs, ev)
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Node != evs[j].Node {
			return evs[i].Node < evs[j].Node
		}
		return evs[i].Service < evs[j].Service
	})
	return evs
}

// Alerts returns the recent transitions, oldest first.
func (v *HealthView) Alerts() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]string(nil), v.alerts...)
}
