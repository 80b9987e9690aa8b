package remote

import (
	"sort"
	"sync"
	"sync/atomic"

	"dosgi/internal/module"
)

// KeyedExporter pairs an ExporterSet key (typically a virtual-framework
// instance id) with its exporter.
type KeyedExporter struct {
	Key string
	Exp *Exporter
}

// ExporterSet manages one Exporter per key — a node's per-instance
// exporters — behind a race-safe attach/detach protocol: instance
// lifecycle events may race (a Stop's detach can run before the Start's
// attach has stored its exporter), so Attach re-checks for duplicates at
// store time and reconciles against stillWanted afterwards, guaranteeing
// no exporter outlives its framework.
type ExporterSet struct {
	mu   sync.Mutex
	exps map[string]*Exporter
	// view is the key-ordered form of exps, rebuilt under mu on every
	// change and never modified after it is stored, so the dispatch path
	// reads it without a lock or a copy.
	view atomic.Pointer[exporterView]
}

type exporterView struct {
	keyed   []KeyedExporter
	sources []ServiceSource
}

// NewExporterSet returns an empty set.
func NewExporterSet() *ExporterSet {
	s := &ExporterSet{exps: make(map[string]*Exporter)}
	s.view.Store(&exporterView{})
	return s
}

// publishLocked rebuilds the key-ordered view. mu is held.
func (s *ExporterSet) publishLocked() {
	v := &exporterView{
		keyed:   make([]KeyedExporter, 0, len(s.exps)),
		sources: make([]ServiceSource, len(s.exps)),
	}
	for key, exp := range s.exps {
		v.keyed = append(v.keyed, KeyedExporter{Key: key, Exp: exp})
	}
	sort.Slice(v.keyed, func(i, j int) bool { return v.keyed[i].Key < v.keyed[j].Key })
	for i, ke := range v.keyed {
		v.sources[i] = ke.Exp
	}
	s.view.Store(v)
}

// Attach builds an exporter over ctx under key, wiring onChange before
// the exporter is exposed (current exports replay through it). After the
// store, stillWanted is consulted: false — the owner stopped while the
// attach was in flight — detaches again. Attaching an existing key is a
// no-op.
func (s *ExporterSet) Attach(key string, ctx *module.Context, onChange func(ExportEvent), stillWanted func() bool) {
	s.mu.Lock()
	if _, dup := s.exps[key]; dup {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	exp, err := NewExporter(ctx)
	if err != nil {
		return
	}
	if onChange != nil {
		exp.OnChange(onChange)
	}
	s.mu.Lock()
	if _, dup := s.exps[key]; dup {
		s.mu.Unlock()
		exp.Close()
		return
	}
	s.exps[key] = exp
	s.publishLocked()
	s.mu.Unlock()
	if stillWanted != nil && !stillWanted() {
		s.Detach(key)
	}
}

// Detach closes and forgets key's exporter (withdrawing any exports the
// registry unregistrations have not already withdrawn).
func (s *ExporterSet) Detach(key string) {
	s.mu.Lock()
	exp, ok := s.exps[key]
	if ok {
		delete(s.exps, key)
		s.publishLocked()
	}
	s.mu.Unlock()
	if ok {
		exp.Close()
	}
}

// Snapshot returns the (key, exporter) pairs sorted by key. The slice is
// shared: callers must not modify it.
func (s *ExporterSet) Snapshot() []KeyedExporter { return s.view.Load().keyed }

// Sources returns the exporters as ServiceSources in key order, without
// copying — a CompositeSource consults them after the host exporter on
// every lookup. The slice is shared: callers must not modify it.
func (s *ExporterSet) Sources() []ServiceSource { return s.view.Load().sources }

// CloseAll detaches everything (node teardown).
func (s *ExporterSet) CloseAll() {
	s.mu.Lock()
	exps := make([]*Exporter, 0, len(s.exps))
	for key, exp := range s.exps {
		exps = append(exps, exp)
		delete(s.exps, key)
	}
	s.publishLocked()
	s.mu.Unlock()
	for _, exp := range exps {
		exp.Close()
	}
}
