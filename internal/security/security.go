// Package security holds the per-subject permission policy that stands in
// for the Java SecurityManager the paper relies on: "To address isolation
// at the filesystem and network levels we rely on the SecurityManager
// provided by the JAVA platform that should be configured by the
// administrator according to the business policies" (§2). The one check
// enforced today is provisioning's deploy gate (provision.Verifier: the
// signer subject must hold the deploy permission for the install
// location); the other permission types are modelled but guard nothing.
package security

import (
	"fmt"
	"strings"
	"sync"
)

// PermissionType classifies what a permission guards.
type PermissionType int

// Permission types.
const (
	PermFile PermissionType = iota + 1
	PermSocket
	PermService
	PermPackage
	PermAdmin
)

func (t PermissionType) String() string {
	switch t {
	case PermFile:
		return "file"
	case PermSocket:
		return "socket"
	case PermService:
		return "service"
	case PermPackage:
		return "package"
	case PermAdmin:
		return "admin"
	}
	return "unknown"
}

// Actions for the built-in permission types.
const (
	ActionRead     = "read"
	ActionWrite    = "write"
	ActionDelete   = "delete"
	ActionConnect  = "connect"
	ActionListen   = "listen"
	ActionBind     = "bind"
	ActionRegister = "register"
	ActionGet      = "get"
	ActionImport   = "import"
	ActionLifecyle = "lifecycle"
	// ActionDeploy guards provisioned-artifact installation: the
	// provisioning verifier checks the artifact's signer subject holds it
	// for the install location before a fetched bundle may be deployed.
	ActionDeploy = "deploy"
)

// Permission is a (type, target pattern, actions) triple. Target patterns
// support a trailing "*" wildcard ("/data/tenant-a/*", "com.example.*",
// "10.0.0.1:*").
type Permission struct {
	Type    PermissionType
	Target  string
	Actions []string
}

// NewPermission builds a permission.
func NewPermission(t PermissionType, target string, actions ...string) Permission {
	return Permission{Type: t, Target: target, Actions: actions}
}

// implies reports whether granted covers requested.
func (p Permission) implies(req Permission) bool {
	if p.Type != req.Type {
		return false
	}
	if !matchTarget(p.Target, req.Target) {
		return false
	}
	for _, need := range req.Actions {
		if !containsAction(p.Actions, need) {
			return false
		}
	}
	return true
}

func containsAction(granted []string, need string) bool {
	for _, a := range granted {
		if a == "*" || a == need {
			return true
		}
	}
	return false
}

// matchTarget matches a pattern against a concrete target. The pattern may
// end with "*" (prefix match); socket patterns additionally match per
// component ("host:port" where either side may be "*").
func matchTarget(pattern, target string) bool {
	if pattern == "*" || pattern == target {
		return true
	}
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(target, strings.TrimSuffix(pattern, "*"))
	}
	// host:port with wildcard components.
	pi := strings.LastIndex(pattern, ":")
	ti := strings.LastIndex(target, ":")
	if pi > 0 && ti > 0 {
		ph, pp := pattern[:pi], pattern[pi+1:]
		th, tp := target[:ti], target[ti+1:]
		hostOK := ph == "*" || ph == th ||
			(strings.HasSuffix(ph, "*") && strings.HasPrefix(th, strings.TrimSuffix(ph, "*")))
		portOK := pp == "*" || pp == tp
		return hostOK && portOK
	}
	return false
}

// AccessDeniedError reports a failed permission check.
type AccessDeniedError struct {
	Subject    string
	Permission Permission
}

func (e *AccessDeniedError) Error() string {
	return fmt.Sprintf("security: subject %q denied %s access to %q (actions %v)",
		e.Subject, e.Permission.Type, e.Permission.Target, e.Permission.Actions)
}

// Policy maps subjects (customer / instance / bundle identifiers) to
// granted permissions. The zero value denies everything; NewPolicy
// configures the default stance.
type Policy struct {
	mu           sync.RWMutex
	grants       map[string][]Permission
	defaultAllow bool
}

// NewPolicy creates a policy. When defaultAllow is true, subjects with no
// explicit grants are unrestricted (the stance of a framework with no
// SecurityManager installed).
func NewPolicy(defaultAllow bool) *Policy {
	return &Policy{grants: make(map[string][]Permission), defaultAllow: defaultAllow}
}

// Grant adds permissions for subject.
func (p *Policy) Grant(subject string, perms ...Permission) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.grants[subject] = append(p.grants[subject], perms...)
}

// Revoke removes all grants for subject.
func (p *Policy) Revoke(subject string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.grants, subject)
}

// Check verifies that subject holds perm; it returns *AccessDeniedError
// otherwise. A subject with no grants is governed by the default stance.
func (p *Policy) Check(subject string, perm Permission) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	grants, known := p.grants[subject]
	if !known {
		if p.defaultAllow {
			return nil
		}
		return &AccessDeniedError{Subject: subject, Permission: perm}
	}
	for _, g := range grants {
		if g.implies(perm) {
			return nil
		}
	}
	return &AccessDeniedError{Subject: subject, Permission: perm}
}

// Allowed is Check as a boolean.
func (p *Policy) Allowed(subject string, perm Permission) bool {
	return p.Check(subject, perm) == nil
}

// Subjects lists subjects with explicit grants.
func (p *Policy) Subjects() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.grants))
	for s := range p.grants {
		out = append(out, s)
	}
	return out
}
