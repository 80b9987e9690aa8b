package module

import (
	"fmt"
	"sort"
	"sync"

	"dosgi/internal/filter"
)

// Standard service property keys.
const (
	PropServiceID      = "service.id"
	PropObjectClass    = "objectClass"
	PropServiceRanking = "service.ranking"

	// PropServiceExported marks a registration for export to other
	// frameworks (Remote Services' service.exported.interfaces, collapsed
	// to a boolean: set it to true and internal/remote publishes the
	// service).
	PropServiceExported = "service.exported"
	// PropServiceExportedName overrides the name the service is exported
	// under; the default is the first objectClass entry.
	PropServiceExportedName = "service.exported.name"
	// PropServiceImported marks a registration as a client-side proxy for
	// a service exported elsewhere.
	PropServiceImported = "service.imported"
	// PropServiceImportedName records the remote service name a proxy
	// invokes.
	PropServiceImportedName = "service.imported.name"
)

// Properties carries service registration properties.
type Properties map[string]any

func (p Properties) clone() Properties {
	out := make(Properties, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// ServiceFactory lets a registration hand out per-bundle service instances,
// as in OSGi. A plain (non-factory) registration hands out the same value
// to everyone.
type ServiceFactory interface {
	GetService(requester *Bundle, reg *ServiceRegistration) any
	UngetService(requester *Bundle, reg *ServiceRegistration, svc any)
}

// ServiceRegistration is the registrar-side handle of a published service.
type ServiceRegistration struct {
	registry *serviceRegistry
	id       int64
	classes  []string
	owner    *Bundle

	// Guarded by registry.mu.
	props        Properties
	svc          any
	ranking      int
	unregistered bool
	usage        map[BundleID]*serviceUse
	ref          *ServiceReference
}

type serviceUse struct {
	count  int
	cached any // factory product for this bundle
}

// Reference returns the reference clients use to obtain the service.
func (r *ServiceRegistration) Reference() *ServiceReference {
	r.registry.mu.Lock()
	defer r.registry.mu.Unlock()
	return r.ref
}

// SetProperties replaces the registration's properties (service.id and
// objectClass are preserved) and emits a MODIFIED event.
func (r *ServiceRegistration) SetProperties(props Properties) error {
	r.registry.mu.Lock()
	if r.unregistered {
		r.registry.mu.Unlock()
		return ErrServiceGone
	}
	next := props.clone()
	next[PropServiceID] = r.id
	next[PropObjectClass] = append([]string(nil), r.classes...)
	if rk, ok := next[PropServiceRanking].(int); ok {
		r.ranking = rk
	} else {
		next[PropServiceRanking] = r.ranking
	}
	r.props = next
	ev := ServiceEvent{Type: ServiceModified, Reference: r.ref}
	r.registry.queueServiceEventLocked(ev)
	r.registry.mu.Unlock()
	r.registry.fw.dispatch()
	return nil
}

// Unregister withdraws the service: an UNREGISTERING event fires, then all
// outstanding uses are released (factories get UngetService callbacks).
func (r *ServiceRegistration) Unregister() error {
	return r.registry.unregister(r)
}

// ServiceReference is the client-side view of a registration.
type ServiceReference struct {
	reg *ServiceRegistration
}

// ID returns the service.id.
func (ref *ServiceReference) ID() int64 { return ref.reg.id }

// Classes returns the objectClass names of the service.
func (ref *ServiceReference) Classes() []string {
	return append([]string(nil), ref.reg.classes...)
}

// Bundle returns the registering bundle.
func (ref *ServiceReference) Bundle() *Bundle { return ref.reg.owner }

// Ranking returns the service.ranking value.
func (ref *ServiceReference) Ranking() int {
	ref.reg.registry.mu.Lock()
	defer ref.reg.registry.mu.Unlock()
	return ref.reg.ranking
}

// Property returns one service property.
func (ref *ServiceReference) Property(key string) any {
	ref.reg.registry.mu.Lock()
	defer ref.reg.registry.mu.Unlock()
	return ref.reg.props[key]
}

// Properties returns a copy of all service properties.
func (ref *ServiceReference) Properties() Properties {
	ref.reg.registry.mu.Lock()
	defer ref.reg.registry.mu.Unlock()
	return ref.reg.props.clone()
}

// IsLive reports whether the registration is still registered.
func (ref *ServiceReference) IsLive() bool {
	ref.reg.registry.mu.Lock()
	defer ref.reg.registry.mu.Unlock()
	return !ref.reg.unregistered
}

// String implements fmt.Stringer.
func (ref *ServiceReference) String() string {
	return fmt.Sprintf("service{id=%d classes=%v}", ref.reg.id, ref.reg.classes)
}

// serviceRegistry implements the OSGi service registry for one framework.
type serviceRegistry struct {
	fw *Framework

	mu        sync.Mutex
	nextID    int64
	regs      map[int64]*ServiceRegistration
	listeners []registryListener
	nextLID   int
}

type registryListener struct {
	id     int
	owner  *Bundle // nil for framework-level listeners
	fn     ServiceListener
	filter *filter.Filter
}

func newServiceRegistry(fw *Framework) *serviceRegistry {
	return &serviceRegistry{fw: fw, regs: make(map[int64]*ServiceRegistration), nextID: 1}
}

// register publishes a service.
func (sr *serviceRegistry) register(owner *Bundle, classes []string, svc any, props Properties) (*ServiceRegistration, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("module: service must declare at least one class")
	}
	if svc == nil {
		return nil, fmt.Errorf("module: service object must not be nil")
	}
	sr.mu.Lock()
	id := sr.nextID
	sr.nextID++
	p := props.clone()
	if p == nil {
		p = make(Properties)
	}
	ranking := 0
	if rk, ok := p[PropServiceRanking].(int); ok {
		ranking = rk
	}
	p[PropServiceID] = id
	p[PropObjectClass] = append([]string(nil), classes...)
	p[PropServiceRanking] = ranking
	reg := &ServiceRegistration{
		registry: sr,
		id:       id,
		classes:  append([]string(nil), classes...),
		owner:    owner,
		props:    p,
		svc:      svc,
		ranking:  ranking,
		usage:    make(map[BundleID]*serviceUse),
	}
	reg.ref = &ServiceReference{reg: reg}
	sr.regs[id] = reg
	sr.queueServiceEventLocked(ServiceEvent{Type: ServiceRegistered, Reference: reg.ref})
	sr.mu.Unlock()
	sr.fw.dispatch()
	return reg, nil
}

func (sr *serviceRegistry) unregister(reg *ServiceRegistration) error {
	sr.mu.Lock()
	if reg.unregistered {
		sr.mu.Unlock()
		return ErrServiceGone
	}
	reg.unregistered = true
	sr.queueServiceEventLocked(ServiceEvent{Type: ServiceUnregistering, Reference: reg.ref})
	delete(sr.regs, reg.id)
	// Snapshot factory releases to run outside the lock.
	type release struct {
		bundle *Bundle
		svc    any
	}
	var releases []release
	if factory, isFactory := reg.svc.(ServiceFactory); isFactory {
		_ = factory
		for bid, use := range reg.usage {
			if use.cached != nil {
				b := sr.bundleByIDLocked(bid)
				releases = append(releases, release{bundle: b, svc: use.cached})
			}
		}
	}
	reg.usage = make(map[BundleID]*serviceUse)
	factory, _ := reg.svc.(ServiceFactory)
	sr.mu.Unlock()
	sr.fw.dispatch()
	if factory != nil {
		for _, rel := range releases {
			factory.UngetService(rel.bundle, reg, rel.svc)
		}
	}
	return nil
}

func (sr *serviceRegistry) bundleByIDLocked(id BundleID) *Bundle {
	// The framework map is guarded by fw.mu; take care with lock order:
	// registry.mu may be held while acquiring fw.mu, never the reverse.
	sr.fw.mu.Lock()
	defer sr.fw.mu.Unlock()
	if b, ok := sr.fw.bundles[id]; ok {
		return b
	}
	return sr.fw.zombies[id]
}

// references returns live references matching class (empty = any) and
// filter, best-ranked first.
func (sr *serviceRegistry) references(class string, flt *filter.Filter) []*ServiceReference {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	var out []*ServiceReference
	for _, reg := range sr.regs {
		if class != "" && !containsString(reg.classes, class) {
			continue
		}
		if flt != nil && !flt.Matches(reg.props) {
			continue
		}
		out = append(out, reg.ref)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].reg, out[j].reg
		if ri.ranking != rj.ranking {
			return ri.ranking > rj.ranking
		}
		return ri.id < rj.id
	})
	return out
}

// getService acquires the service for requester, incrementing its use
// count.
func (sr *serviceRegistry) getService(requester *Bundle, ref *ServiceReference) (any, error) {
	reg := ref.reg
	sr.mu.Lock()
	if reg.unregistered {
		sr.mu.Unlock()
		return nil, ErrServiceGone
	}
	use, ok := reg.usage[requester.id]
	if !ok {
		use = &serviceUse{}
		reg.usage[requester.id] = use
	}
	use.count++
	factory, isFactory := reg.svc.(ServiceFactory)
	if !isFactory {
		svc := reg.svc
		sr.mu.Unlock()
		return svc, nil
	}
	if use.cached != nil {
		svc := use.cached
		sr.mu.Unlock()
		return svc, nil
	}
	sr.mu.Unlock()
	// Factory call happens outside the lock: factories may use the
	// registry themselves.
	produced := factory.GetService(requester, reg)
	sr.mu.Lock()
	if reg.unregistered {
		sr.mu.Unlock()
		factory.UngetService(requester, reg, produced)
		return nil, ErrServiceGone
	}
	if use.cached == nil {
		use.cached = produced
	}
	svc := use.cached
	sr.mu.Unlock()
	if svc != produced && produced != nil {
		// A concurrent GetService won the race; release the extra product.
		factory.UngetService(requester, reg, produced)
	}
	return svc, nil
}

// ungetService releases one use; it reports whether the requester still
// held the service.
func (sr *serviceRegistry) ungetService(requester *Bundle, ref *ServiceReference) bool {
	reg := ref.reg
	sr.mu.Lock()
	use, ok := reg.usage[requester.id]
	if !ok || use.count == 0 {
		sr.mu.Unlock()
		return false
	}
	use.count--
	var toRelease any
	if use.count == 0 {
		toRelease = use.cached
		delete(reg.usage, requester.id)
	}
	factory, isFactory := reg.svc.(ServiceFactory)
	sr.mu.Unlock()
	if isFactory && toRelease != nil {
		factory.UngetService(requester, reg, toRelease)
	}
	return true
}

// unregisterAllOf withdraws every registration owned by b (bundle stop).
func (sr *serviceRegistry) unregisterAllOf(b *Bundle) {
	sr.mu.Lock()
	var owned []*ServiceRegistration
	for _, reg := range sr.regs {
		if reg.owner == b {
			owned = append(owned, reg)
		}
	}
	sr.mu.Unlock()
	sort.Slice(owned, func(i, j int) bool { return owned[i].id < owned[j].id })
	for _, reg := range owned {
		_ = sr.unregister(reg)
	}
}

// ungetAllHeldBy force-releases every service b still holds (bundle stop).
func (sr *serviceRegistry) ungetAllHeldBy(b *Bundle) {
	sr.mu.Lock()
	type held struct {
		reg *ServiceRegistration
		svc any
	}
	var releases []held
	for _, reg := range sr.regs {
		if use, ok := reg.usage[b.id]; ok {
			if use.cached != nil {
				releases = append(releases, held{reg: reg, svc: use.cached})
			}
			delete(reg.usage, b.id)
		}
	}
	sr.mu.Unlock()
	for _, h := range releases {
		if factory, ok := h.reg.svc.(ServiceFactory); ok {
			factory.UngetService(b, h.reg, h.svc)
		}
	}
}

func (sr *serviceRegistry) referencesByOwner(b *Bundle) []*ServiceReference {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	var out []*ServiceReference
	for _, reg := range sr.regs {
		if reg.owner == b {
			out = append(out, reg.ref)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].reg.id < out[j].reg.id })
	return out
}

func (sr *serviceRegistry) referencesInUseBy(b *Bundle) []*ServiceReference {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	var out []*ServiceReference
	for _, reg := range sr.regs {
		if use, ok := reg.usage[b.id]; ok && use.count > 0 {
			out = append(out, reg.ref)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].reg.id < out[j].reg.id })
	return out
}

func (sr *serviceRegistry) addListener(owner *Bundle, fn ServiceListener, filterExpr string) (*ListenerHandle, error) {
	var flt *filter.Filter
	if filterExpr != "" {
		var err error
		if flt, err = filter.Parse(filterExpr); err != nil {
			return nil, err
		}
	}
	sr.mu.Lock()
	sr.nextLID++
	id := sr.nextLID
	sr.listeners = append(sr.listeners, registryListener{id: id, owner: owner, fn: fn, filter: flt})
	sr.mu.Unlock()
	return &ListenerHandle{remove: func() { sr.removeListener(id) }}, nil
}

func (sr *serviceRegistry) removeListener(id int) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	for i, l := range sr.listeners {
		if l.id == id {
			sr.listeners = append(sr.listeners[:i], sr.listeners[i+1:]...)
			return
		}
	}
}

func (sr *serviceRegistry) removeListenersOf(owner *Bundle) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	kept := sr.listeners[:0]
	for _, l := range sr.listeners {
		if l.owner != owner {
			kept = append(kept, l)
		}
	}
	sr.listeners = kept
}

// queueServiceEventLocked snapshots matching listeners and queues delivery
// on the framework event queue. Callers must hold sr.mu.
func (sr *serviceRegistry) queueServiceEventLocked(ev ServiceEvent) {
	props := ev.Reference.reg.props
	var targets []ServiceListener
	for _, l := range sr.listeners {
		if l.filter == nil || l.filter.Matches(props) {
			targets = append(targets, l.fn)
		}
	}
	sr.fw.mu.Lock()
	sr.fw.queueDelivery(func() {
		for _, fn := range targets {
			fn(ev)
		}
	})
	sr.fw.mu.Unlock()
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
