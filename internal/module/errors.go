package module

import (
	"errors"
	"fmt"
)

// Sentinel errors returned by framework operations.
var (
	// ErrDuplicateLocation is returned when installing a location twice.
	ErrDuplicateLocation = errors.New("module: bundle location already installed")
	// ErrInvalidState is returned when an operation is illegal in the
	// bundle's or framework's current state.
	ErrInvalidState = errors.New("module: invalid state for operation")
	// ErrServiceGone is returned when using a service reference whose
	// registration has been unregistered.
	ErrServiceGone = errors.New("module: service has been unregistered")
	// ErrUninstalled is returned for operations on uninstalled bundles.
	ErrUninstalled = errors.New("module: bundle is uninstalled")
	// ErrNoActivator is returned when a manifest names an activator class
	// that the definition does not provide.
	ErrNoActivator = errors.New("module: activator class not found in definition")
	// ErrDefinitionNotFound is returned when no bundle definition exists
	// for an install location.
	ErrDefinitionNotFound = errors.New("module: no definition for location")
)

// ResolutionError reports why one or more bundles could not be resolved.
type ResolutionError struct {
	// Unresolvable maps bundle symbolic names to the reason resolution
	// failed.
	Unresolvable map[string]string
}

func (e *ResolutionError) Error() string {
	return fmt.Sprintf("module: resolution failed for %d bundle(s): %v", len(e.Unresolvable), e.Unresolvable)
}

// ClassNotFoundError reports a failed class lookup, mirroring
// java.lang.ClassNotFoundException.
type ClassNotFoundError struct {
	Class  string
	Bundle string // symbolic name of the requesting bundle
}

func (e *ClassNotFoundError) Error() string {
	return fmt.Sprintf("module: class %s not found from bundle %s", e.Class, e.Bundle)
}
