package module

import (
	"fmt"
	"sort"
	"sync"

	"dosgi/internal/manifest"
)

// ParentDelegate is consulted by a bundle's class lookup after every local
// mechanism has failed. It is how a virtual framework reaches the explicitly
// exported content of its hosting framework — the "custom classloader …
// topmost … in the classloader's hierarchy" of the paper (§2).
type ParentDelegate interface {
	// DelegateLoadClass returns the class if its package is explicitly
	// exported to this child, or a *ClassNotFoundError.
	DelegateLoadClass(name string) (Class, error)
}

// Class is a loaded class entry. Definer conveys class identity: two loads
// that return the same Definer and Name are "the same class", which is what
// lets virtual instances share a single copy of a pulled-down bundle
// (Figure 4).
type Class struct {
	Name    string
	Value   any
	Definer *Bundle
}

// initialBundleStartLevel is the start level of a newly installed bundle
// whose manifest names none.
const initialBundleStartLevel = 1

// Option configures a Framework.
type Option func(*config)

type config struct {
	name       string
	defs       *DefinitionRegistry
	parent     ParentDelegate
	startLevel int
}

// WithName sets a diagnostic name for the framework.
func WithName(name string) Option { return func(c *config) { c.name = name } }

// WithDefinitions sets the registry the framework installs bundles from.
func WithDefinitions(defs *DefinitionRegistry) Option {
	return func(c *config) { c.defs = defs }
}

// WithParent attaches the parent delegation hook used by virtual
// frameworks.
func WithParent(p ParentDelegate) Option { return func(c *config) { c.parent = p } }

// WithStartLevel sets the framework's active start level reached by Start.
func WithStartLevel(level int) Option {
	return func(c *config) { c.startLevel = level }
}

// Framework is a dynamic module system instance: the Go reconstruction of
// an OSGi framework. It owns bundles, their wiring and the service
// registry. All exported methods are safe for concurrent use.
type Framework struct {
	mu sync.Mutex

	name   string
	defs   *DefinitionRegistry
	parent ParentDelegate
	props  map[string]string

	state            BundleState
	startLevel       int
	targetStartLevel int

	bundles    map[BundleID]*Bundle
	byLocation map[string]*Bundle
	zombies    map[BundleID]*Bundle
	nextID     BundleID
	system     *Bundle

	registry *serviceRegistry

	listenerID       int
	bundleListeners  []bundleListenerEntry
	fwListeners      []frameworkListenerEntry
	pendingEvents    []func()
	dispatching      bool
	dispatchWaitMu   sync.Mutex // serializes top-level dispatch loops
	snapshotExtender map[string][]byte
}

// New creates a framework in the RESOLVED state. Call Start to activate it.
func New(opts ...Option) *Framework {
	cfg := &config{
		name:       "framework",
		startLevel: 1,
	}
	for _, opt := range opts {
		opt(cfg)
	}
	if cfg.defs == nil {
		cfg.defs = NewDefinitionRegistry()
	}
	f := &Framework{
		name:             cfg.name,
		defs:             cfg.defs,
		parent:           cfg.parent,
		props:            make(map[string]string),
		state:            StateResolved,
		startLevel:       0,
		targetStartLevel: cfg.startLevel,
		bundles:          make(map[BundleID]*Bundle),
		byLocation:       make(map[string]*Bundle),
		zombies:          make(map[BundleID]*Bundle),
		nextID:           1,
		snapshotExtender: make(map[string][]byte),
	}
	f.registry = newServiceRegistry(f)
	f.system = f.newSystemBundle()
	f.bundles[SystemBundleID] = f.system
	return f
}

// systemManifest is the system bundle's manifest: it exports no packages.
const systemManifest = "Bundle-SymbolicName: system.bundle\nBundle-Version: 1.0.0\n"

func (f *Framework) newSystemBundle() *Bundle {
	m := manifest.MustParse(systemManifest)
	sys := &Bundle{
		fw:         f,
		id:         SystemBundleID,
		location:   "system",
		manifest:   m,
		def:        &Definition{ManifestText: systemManifest},
		state:      StateResolved,
		startLevel: 0,
		wiring:     &Wiring{imports: map[string]*Bundle{}, dynamic: map[string]*Bundle{}},
		data:       make(map[string][]byte),
	}
	sys.ctx = &Context{bundle: sys, fw: f}
	return sys
}

// Name returns the framework's diagnostic name.
func (f *Framework) Name() string { return f.name }

// Definitions returns the definition registry bundles install from.
func (f *Framework) Definitions() *DefinitionRegistry { return f.defs }

// Property returns a framework property.
func (f *Framework) Property(key string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.props[key]
}

// SetProperty sets a framework property.
func (f *Framework) SetProperty(key, value string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.props[key] = value
}

// State returns the framework's lifecycle state (the system bundle state).
func (f *Framework) State() BundleState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state
}

// SystemBundle returns the system bundle (id 0).
func (f *Framework) SystemBundle() *Bundle { return f.system }

// SystemContext returns the system bundle's context. Embedders (the
// instance manager, virtual-framework plumbing) use it to interact with the
// registry on behalf of the framework itself.
func (f *Framework) SystemContext() *Context { return f.system.ctx }

// Start activates the framework and raises the start level to the
// configured target, starting persistently started bundles.
func (f *Framework) Start() error {
	f.mu.Lock()
	if f.state == StateActive {
		f.mu.Unlock()
		return nil
	}
	f.state = StateActive
	target := f.targetStartLevel
	f.queueFrameworkEvent(FrameworkEvent{Type: FrameworkStarted, Bundle: f.system})
	f.mu.Unlock()
	f.dispatch()
	return f.SetStartLevel(target)
}

// Stop lowers the start level to zero (stopping every bundle in reverse
// order) and deactivates the framework.
func (f *Framework) Stop() error {
	f.mu.Lock()
	if f.state != StateActive {
		f.mu.Unlock()
		return nil
	}
	f.mu.Unlock()
	if err := f.setStartLevel(0, false); err != nil {
		return err
	}
	f.mu.Lock()
	f.state = StateResolved
	f.queueFrameworkEvent(FrameworkEvent{Type: FrameworkStopped, Bundle: f.system})
	f.mu.Unlock()
	f.dispatch()
	return nil
}

// StartLevel returns the framework's current start level.
func (f *Framework) StartLevel() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.startLevel
}

// SetStartLevel moves the framework to the given start level, starting and
// stopping persistently started bundles as needed.
func (f *Framework) SetStartLevel(level int) error {
	return f.setStartLevel(level, true)
}

func (f *Framework) setStartLevel(level int, requireActive bool) error {
	if level < 0 {
		return fmt.Errorf("%w: negative start level", ErrInvalidState)
	}
	f.mu.Lock()
	if requireActive && f.state != StateActive {
		f.mu.Unlock()
		return fmt.Errorf("%w: framework is not active", ErrInvalidState)
	}
	f.startLevel = level
	if f.state == StateActive {
		f.targetStartLevel = level
	}

	type action struct {
		b     *Bundle
		start bool
	}
	var plan []action
	all := f.bundlesLocked()
	// Starts in (startLevel, id) ascending order.
	for _, b := range all {
		if b.isSystem() {
			continue
		}
		if b.persistentlyStarted && b.startLevel <= level && b.state != StateActive && b.state != StateUninstalled {
			plan = append(plan, action{b: b, start: true})
		}
	}
	sort.SliceStable(plan, func(i, j int) bool {
		if plan[i].b.startLevel != plan[j].b.startLevel {
			return plan[i].b.startLevel < plan[j].b.startLevel
		}
		return plan[i].b.id < plan[j].b.id
	})
	// Stops in (startLevel, id) descending order, appended after starts.
	var stops []action
	for _, b := range all {
		if b.isSystem() {
			continue
		}
		if b.startLevel > level && b.state == StateActive {
			stops = append(stops, action{b: b})
		}
	}
	sort.SliceStable(stops, func(i, j int) bool {
		if stops[i].b.startLevel != stops[j].b.startLevel {
			return stops[i].b.startLevel > stops[j].b.startLevel
		}
		return stops[i].b.id > stops[j].b.id
	})
	plan = append(plan, stops...)
	f.queueFrameworkEvent(FrameworkEvent{Type: FrameworkStartLevelChanged, Bundle: f.system})
	f.mu.Unlock()

	var firstErr error
	for _, a := range plan {
		var err error
		if a.start {
			err = f.startBundle(a.b, false)
		} else {
			err = f.stopBundle(a.b, false)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if err != nil {
			f.reportError(a.b, err)
		}
	}
	f.dispatch()
	return firstErr
}

// InstallBundle installs the definition registered under location.
func (f *Framework) InstallBundle(location string) (*Bundle, error) {
	def, ok := f.defs.Get(location)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrDefinitionNotFound, location)
	}
	m, err := manifest.Parse(def.ManifestText)
	if err != nil {
		return nil, err
	}

	f.mu.Lock()
	if existing, dup := f.byLocation[location]; dup {
		f.mu.Unlock()
		_ = existing
		return existing, fmt.Errorf("%w: %q", ErrDuplicateLocation, location)
	}
	for _, b := range f.bundles {
		if b.manifest.SymbolicName == m.SymbolicName && b.manifest.Version.Compare(m.Version) == 0 {
			f.mu.Unlock()
			return nil, fmt.Errorf("module: bundle %s/%s already installed from %q",
				m.SymbolicName, m.Version, b.location)
		}
	}
	b := &Bundle{
		fw:         f,
		id:         f.nextID,
		location:   location,
		manifest:   m,
		def:        def,
		state:      StateInstalled,
		startLevel: initialBundleStartLevel,
		data:       make(map[string][]byte),
	}
	if m.StartLevel > 0 {
		b.startLevel = m.StartLevel
	}
	for name, content := range def.DataFiles {
		cp := make([]byte, len(content))
		copy(cp, content)
		b.data[name] = cp
	}
	f.nextID++
	f.bundles[b.id] = b
	f.byLocation[location] = b
	f.queueBundleEvent(BundleEvent{Type: BundleInstalled, Bundle: b})
	f.mu.Unlock()
	f.dispatch()
	return b, nil
}

// GetBundle returns the bundle with the given id.
func (f *Framework) GetBundle(id BundleID) (*Bundle, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.bundles[id]
	return b, ok
}

// GetBundleByLocation returns the bundle installed from location.
func (f *Framework) GetBundleByLocation(location string) (*Bundle, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.byLocation[location]
	return b, ok
}

// GetBundleBySymbolicName returns the highest-version bundle with the given
// symbolic name.
func (f *Framework) GetBundleBySymbolicName(name string) (*Bundle, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var best *Bundle
	for _, b := range f.bundles {
		if b.manifest.SymbolicName != name {
			continue
		}
		if best == nil || b.manifest.Version.Compare(best.manifest.Version) > 0 {
			best = b
		}
	}
	return best, best != nil
}

// Bundles returns all installed bundles sorted by id, including the system
// bundle.
func (f *Framework) Bundles() []*Bundle {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bundlesLocked()
}

func (f *Framework) bundlesLocked() []*Bundle {
	out := make([]*Bundle, 0, len(f.bundles))
	for _, b := range f.bundles {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// ResolveAll attempts to resolve every INSTALLED bundle, co-resolving
// mutually dependent sets. It returns a *ResolutionError listing bundles
// that could not be resolved, while still committing those that could.
func (f *Framework) ResolveAll() error {
	f.mu.Lock()
	err := f.resolveAllLocked()
	f.mu.Unlock()
	f.dispatch()
	return err
}

// startBundle starts b. When persistent is true the start is recorded as
// administrator intent (survives snapshots); start-level driven starts pass
// false.
func (f *Framework) startBundle(b *Bundle, persistent bool) error {
	f.mu.Lock()
	switch b.state {
	case StateUninstalled:
		f.mu.Unlock()
		return ErrUninstalled
	case StateActive:
		if persistent {
			b.persistentlyStarted = true
		}
		f.mu.Unlock()
		return nil
	case StateStarting, StateStopping:
		f.mu.Unlock()
		return fmt.Errorf("%w: bundle %s is %s", ErrInvalidState, b.location, b.state)
	}
	if persistent {
		b.persistentlyStarted = true
	}
	if b.startLevel > f.startLevel {
		// Deferred: will start when the framework start level reaches it.
		f.mu.Unlock()
		f.dispatch()
		return nil
	}
	if b.state == StateInstalled {
		if err := f.resolveAllLocked(); err != nil || b.state == StateInstalled {
			f.mu.Unlock()
			f.dispatch()
			if err == nil {
				err = fmt.Errorf("module: bundle %s: %w", b.location, ErrInvalidState)
			}
			return fmt.Errorf("module: cannot start unresolved bundle %s: %w", b.location, err)
		}
	}
	b.state = StateStarting
	b.ctx = &Context{bundle: b, fw: f}
	var act Activator
	if b.manifest.Activator != "" {
		if b.def.NewActivator == nil {
			b.state = StateResolved
			b.ctx = nil
			f.mu.Unlock()
			f.dispatch()
			return fmt.Errorf("%w: %s", ErrNoActivator, b.manifest.Activator)
		}
		act = b.def.NewActivator()
	} else if b.def.NewActivator != nil {
		act = b.def.NewActivator()
	}
	b.activator = act
	ctx := b.ctx
	f.queueBundleEvent(BundleEvent{Type: BundleStarting, Bundle: b})
	f.mu.Unlock()
	f.dispatch()

	if act != nil {
		if err := act.Start(ctx); err != nil {
			// Activator failure: clean up anything it registered, return to
			// RESOLVED.
			f.registry.unregisterAllOf(b)
			f.registry.ungetAllHeldBy(b)
			f.mu.Lock()
			b.state = StateResolved
			b.ctx = nil
			b.activator = nil
			f.queueBundleEvent(BundleEvent{Type: BundleStopped, Bundle: b})
			f.mu.Unlock()
			f.dispatch()
			return fmt.Errorf("module: activator of %s failed: %w", b.location, err)
		}
	}

	f.mu.Lock()
	b.state = StateActive
	f.queueBundleEvent(BundleEvent{Type: BundleStarted, Bundle: b})
	f.mu.Unlock()
	f.dispatch()
	return nil
}

// stopBundle stops b. When persistent is true the administrator intent flag
// is cleared.
func (f *Framework) stopBundle(b *Bundle, persistent bool) error {
	f.mu.Lock()
	if persistent {
		b.persistentlyStarted = false
	}
	switch b.state {
	case StateUninstalled:
		f.mu.Unlock()
		return ErrUninstalled
	case StateActive:
	default:
		f.mu.Unlock()
		return nil
	}
	b.state = StateStopping
	act := b.activator
	ctx := b.ctx
	f.queueBundleEvent(BundleEvent{Type: BundleStopping, Bundle: b})
	f.mu.Unlock()
	f.dispatch()

	var stopErr error
	if act != nil {
		stopErr = act.Stop(ctx)
	}
	// Whatever the activator did, the framework reclaims the bundle's
	// services and service uses.
	f.registry.unregisterAllOf(b)
	f.registry.ungetAllHeldBy(b)
	f.removeListenersOf(b)

	f.mu.Lock()
	b.state = StateResolved
	b.ctx = nil
	b.activator = nil
	f.queueBundleEvent(BundleEvent{Type: BundleStopped, Bundle: b})
	f.mu.Unlock()
	f.dispatch()
	if stopErr != nil {
		return fmt.Errorf("module: activator stop of %s failed: %w", b.location, stopErr)
	}
	return nil
}

func (f *Framework) updateBundle(b *Bundle) error {
	def, ok := f.defs.Get(b.location)
	if !ok {
		return fmt.Errorf("%w: %q", ErrDefinitionNotFound, b.location)
	}
	m, err := manifest.Parse(def.ManifestText)
	if err != nil {
		return err
	}
	wasActive := b.State() == StateActive
	if wasActive {
		if err := f.stopBundle(b, false); err != nil {
			return err
		}
	}
	f.mu.Lock()
	if b.state == StateUninstalled {
		f.mu.Unlock()
		return ErrUninstalled
	}
	b.manifest = m
	b.def = def
	b.wiring = nil
	b.state = StateInstalled
	f.queueBundleEvent(BundleEvent{Type: BundleUpdated, Bundle: b})
	f.mu.Unlock()
	f.dispatch()
	if wasActive {
		return f.startBundle(b, false)
	}
	return nil
}

func (f *Framework) uninstallBundle(b *Bundle) error {
	if b.isSystem() {
		return fmt.Errorf("%w: cannot uninstall the system bundle", ErrInvalidState)
	}
	if b.State() == StateActive {
		if err := f.stopBundle(b, true); err != nil {
			return err
		}
	}
	f.mu.Lock()
	if b.state == StateUninstalled {
		f.mu.Unlock()
		return ErrUninstalled
	}
	delete(f.bundles, b.id)
	delete(f.byLocation, b.location)
	// Keep a zombie: bundles wired to this one keep functioning until
	// RefreshBundles, per OSGi uninstall semantics.
	f.zombies[b.id] = b
	b.state = StateUninstalled
	f.queueBundleEvent(BundleEvent{Type: BundleUninstalled, Bundle: b})
	f.mu.Unlock()
	f.dispatch()
	return nil
}

// RefreshBundles recomputes the wiring of every bundle: active bundles are
// stopped, all wiring is discarded (releasing zombies of uninstalled
// bundles), resolution runs again and previously active bundles restart.
func (f *Framework) RefreshBundles() error {
	f.mu.Lock()
	var wasActive []*Bundle
	for _, b := range f.bundlesLocked() {
		if b.isSystem() {
			continue
		}
		if b.state == StateActive {
			wasActive = append(wasActive, b)
		}
	}
	// Stop in reverse (startLevel, id) order.
	sort.SliceStable(wasActive, func(i, j int) bool {
		if wasActive[i].startLevel != wasActive[j].startLevel {
			return wasActive[i].startLevel > wasActive[j].startLevel
		}
		return wasActive[i].id > wasActive[j].id
	})
	f.mu.Unlock()

	for _, b := range wasActive {
		if err := f.stopBundle(b, false); err != nil {
			f.reportError(b, err)
		}
	}

	f.mu.Lock()
	for _, b := range f.bundlesLocked() {
		if b.isSystem() || b.state == StateUninstalled {
			continue
		}
		if b.state == StateResolved {
			f.queueBundleEvent(BundleEvent{Type: BundleUnresolved, Bundle: b})
		}
		b.wiring = nil
		b.state = StateInstalled
	}
	f.zombies = make(map[BundleID]*Bundle)
	resolveErr := f.resolveAllLocked()
	f.mu.Unlock()
	f.dispatch()

	// Restart in (startLevel, id) order.
	sort.SliceStable(wasActive, func(i, j int) bool {
		if wasActive[i].startLevel != wasActive[j].startLevel {
			return wasActive[i].startLevel < wasActive[j].startLevel
		}
		return wasActive[i].id < wasActive[j].id
	})
	var firstErr error
	for _, b := range wasActive {
		if err := f.startBundle(b, false); err != nil {
			f.reportError(b, err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return resolveErr
}

// AddBundleListener registers a bundle event listener.
func (f *Framework) AddBundleListener(l BundleListener) *ListenerHandle {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.listenerID++
	id := f.listenerID
	f.bundleListeners = append(f.bundleListeners, bundleListenerEntry{id: id, fn: l})
	return &ListenerHandle{remove: func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		for i, e := range f.bundleListeners {
			if e.id == id {
				f.bundleListeners = append(f.bundleListeners[:i], f.bundleListeners[i+1:]...)
				break
			}
		}
	}}
}

// AddFrameworkListener registers a framework event listener.
func (f *Framework) AddFrameworkListener(l FrameworkListener) *ListenerHandle {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.listenerID++
	id := f.listenerID
	f.fwListeners = append(f.fwListeners, frameworkListenerEntry{id: id, fn: l})
	return &ListenerHandle{remove: func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		for i, e := range f.fwListeners {
			if e.id == id {
				f.fwListeners = append(f.fwListeners[:i], f.fwListeners[i+1:]...)
				break
			}
		}
	}}
}

// AddServiceListener registers a service event listener, optionally
// restricted by an LDAP filter over the service properties.
func (f *Framework) AddServiceListener(l ServiceListener, filterExpr string) (*ListenerHandle, error) {
	return f.registry.addListener(nil, l, filterExpr)
}

// queueBundleEvent snapshots the listener list and queues a delivery.
// Callers must hold f.mu.
func (f *Framework) queueBundleEvent(ev BundleEvent) {
	listeners := make([]BundleListener, 0, len(f.bundleListeners))
	for _, e := range f.bundleListeners {
		listeners = append(listeners, e.fn)
	}
	f.pendingEvents = append(f.pendingEvents, func() {
		for _, l := range listeners {
			l(ev)
		}
	})
}

// queueFrameworkEvent is queueBundleEvent for framework events. Callers
// must hold f.mu.
func (f *Framework) queueFrameworkEvent(ev FrameworkEvent) {
	listeners := make([]FrameworkListener, 0, len(f.fwListeners))
	for _, e := range f.fwListeners {
		listeners = append(listeners, e.fn)
	}
	f.pendingEvents = append(f.pendingEvents, func() {
		for _, l := range listeners {
			l(ev)
		}
	})
}

// queueDelivery queues an arbitrary event delivery. Callers must hold f.mu.
func (f *Framework) queueDelivery(fn func()) {
	f.pendingEvents = append(f.pendingEvents, fn)
}

// dispatch drains queued event deliveries. It must be called without f.mu
// held. Nested mutations performed by listeners queue further deliveries
// which the outermost dispatch drains, preserving causal order.
func (f *Framework) dispatch() {
	for {
		f.mu.Lock()
		if f.dispatching || len(f.pendingEvents) == 0 {
			f.mu.Unlock()
			return
		}
		f.dispatching = true
		batch := f.pendingEvents
		f.pendingEvents = nil
		f.mu.Unlock()
		for _, fn := range batch {
			fn()
		}
		f.mu.Lock()
		f.dispatching = false
		f.mu.Unlock()
	}
}

// reportError publishes a FrameworkError event.
func (f *Framework) reportError(b *Bundle, err error) {
	f.mu.Lock()
	f.queueFrameworkEvent(FrameworkEvent{Type: FrameworkError, Bundle: b, Err: err})
	f.mu.Unlock()
	f.dispatch()
}

// removeListenersOf drops service listeners registered through a bundle's
// context when that bundle stops.
func (f *Framework) removeListenersOf(b *Bundle) {
	f.registry.removeListenersOf(b)
}
