// Package security holds the per-subject permission policy that stands in
// for the Java SecurityManager the paper relies on: "To address isolation
// at the filesystem and network levels we rely on the SecurityManager
// provided by the JAVA platform that should be configured by the
// administrator according to the business policies" (§2). The one check
// enforced is provisioning's deploy gate (provision.Verifier: the signer
// subject must hold the deploy permission for the install location).
package security

import (
	"fmt"
	"strings"
	"sync"
)

// PermissionType classifies what a permission guards.
type PermissionType int

// PermAdmin is the permission type of administrative operations, the
// deploy gate among them.
const PermAdmin PermissionType = 1

func (t PermissionType) String() string {
	if t == PermAdmin {
		return "admin"
	}
	return "unknown"
}

// ActionDeploy guards provisioned-artifact installation: the provisioning
// verifier checks the artifact's signer subject holds it for the install
// location before a fetched bundle may be deployed.
const ActionDeploy = "deploy"

// Permission is a (type, target pattern, actions) triple. Target patterns
// support a trailing "*" wildcard ("app:*").
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

// matchTarget matches a pattern against a concrete target: equal, or the
// pattern ends with "*" and the target extends the rest of it. A "*"
// anywhere else is a literal, so "*:greeter" grants no "app:greeter".
func matchTarget(pattern, target string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "*"); ok {
		return strings.HasPrefix(target, prefix)
	}
	return pattern == target
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
