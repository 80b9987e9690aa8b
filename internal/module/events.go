package module

// BundleEventType enumerates bundle lifecycle events.
type BundleEventType int

// Bundle lifecycle event types.
const (
	BundleInstalled BundleEventType = iota + 1
	BundleResolved
	BundleStarting
	BundleStarted
	BundleStopping
	BundleStopped
	BundleUpdated
	BundleUninstalled
	BundleUnresolved
)

var bundleEventNames = map[BundleEventType]string{
	BundleInstalled:   "INSTALLED",
	BundleResolved:    "RESOLVED",
	BundleStarting:    "STARTING",
	BundleStarted:     "STARTED",
	BundleStopping:    "STOPPING",
	BundleStopped:     "STOPPED",
	BundleUpdated:     "UPDATED",
	BundleUninstalled: "UNINSTALLED",
	BundleUnresolved:  "UNRESOLVED",
}

func (t BundleEventType) String() string {
	if s, ok := bundleEventNames[t]; ok {
		return s
	}
	return "UNKNOWN"
}

// BundleEvent describes a bundle lifecycle transition.
type BundleEvent struct {
	Type   BundleEventType
	Bundle *Bundle
}

// BundleListener receives bundle events.
type BundleListener func(BundleEvent)

// ServiceEventType enumerates service registry events.
type ServiceEventType int

// Service registry event types.
const (
	ServiceRegistered ServiceEventType = iota + 1
	ServiceModified
	ServiceUnregistering
)

func (t ServiceEventType) String() string {
	switch t {
	case ServiceRegistered:
		return "REGISTERED"
	case ServiceModified:
		return "MODIFIED"
	case ServiceUnregistering:
		return "UNREGISTERING"
	}
	return "UNKNOWN"
}

// ServiceEvent describes a service registration change.
type ServiceEvent struct {
	Type      ServiceEventType
	Reference *ServiceReference
}

// ServiceListener receives service events.
type ServiceListener func(ServiceEvent)

// FrameworkEventType enumerates framework-level events.
type FrameworkEventType int

// Framework event types.
const (
	FrameworkStarted FrameworkEventType = iota + 1
	FrameworkStopped
	FrameworkError
	FrameworkStartLevelChanged
)

func (t FrameworkEventType) String() string {
	switch t {
	case FrameworkStarted:
		return "STARTED"
	case FrameworkStopped:
		return "STOPPED"
	case FrameworkError:
		return "ERROR"
	case FrameworkStartLevelChanged:
		return "STARTLEVEL_CHANGED"
	}
	return "UNKNOWN"
}

// FrameworkEvent describes a framework-level occurrence.
type FrameworkEvent struct {
	Type   FrameworkEventType
	Bundle *Bundle // bundle involved, if any
	Err    error   // for FrameworkError
}

// FrameworkListener receives framework events.
type FrameworkListener func(FrameworkEvent)

// ListenerHandle removes a previously added listener.
type ListenerHandle struct {
	remove func()
}

// Remove detaches the listener. It is safe to call more than once.
func (h *ListenerHandle) Remove() {
	if h != nil && h.remove != nil {
		h.remove()
		h.remove = nil
	}
}

type bundleListenerEntry struct {
	id int
	fn BundleListener
}

type frameworkListenerEntry struct {
	id int
	fn FrameworkListener
}
