package security

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestPolicyDefaultStance(t *testing.T) {
	allow := NewPolicy(true)
	deny := NewPolicy(false)
	perm := NewPermission(PermAdmin, "app:x", ActionDeploy)
	if err := allow.Check("unknown", perm); err != nil {
		t.Errorf("default-allow denied: %v", err)
	}
	if err := deny.Check("unknown", perm); err == nil {
		t.Error("default-deny allowed")
	}
}

func TestGrantAndCheck(t *testing.T) {
	p := NewPolicy(false)
	p.Grant("signer-a",
		NewPermission(PermAdmin, "app:greeter", ActionDeploy),
		NewPermission(PermAdmin, "lib:*", ActionDeploy),
	)
	tests := []struct {
		name    string
		subject string
		perm    Permission
		allowed bool
	}{
		{"exact location", "signer-a", NewPermission(PermAdmin, "app:greeter", ActionDeploy), true},
		{"other location", "signer-a", NewPermission(PermAdmin, "app:shop", ActionDeploy), false},
		{"other action denied", "signer-a", NewPermission(PermAdmin, "app:greeter", "undeploy"), false},
		{"location prefix", "signer-a", NewPermission(PermAdmin, "lib:json", ActionDeploy), true},
		{"location outside prefix", "signer-a", NewPermission(PermAdmin, "app:json", ActionDeploy), false},
		{"unknown subject", "signer-b", NewPermission(PermAdmin, "app:greeter", ActionDeploy), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := p.Check(tt.subject, tt.perm)
			if (err == nil) != tt.allowed {
				t.Errorf("Check = %v, want allowed=%v", err, tt.allowed)
			}
			if err != nil {
				var denied *AccessDeniedError
				if !errors.As(err, &denied) {
					t.Errorf("error type = %T", err)
				}
			}
		})
	}
}

func TestWildcardActions(t *testing.T) {
	p := NewPolicy(false)
	p.Grant("admin", NewPermission(PermAdmin, "*", "*"))
	if !p.Allowed("admin", NewPermission(PermAdmin, "app:x", ActionDeploy)) {
		t.Error("wildcard action grant failed")
	}
}

// TestTargetWildcardOnlyAtTheEnd: a "*" matches only as the
// pattern's last character, so a grant for "*:greeter" names no install
// location, and "app:*" covers the app scheme alone.
func TestTargetWildcardOnlyAtTheEnd(t *testing.T) {
	p := NewPolicy(false)
	p.Grant("greeter-signer", NewPermission(PermAdmin, "*:greeter", ActionDeploy))
	p.Grant("app-signer", NewPermission(PermAdmin, "app:*", ActionDeploy))
	for _, tt := range []struct {
		subject, target string
		allowed         bool
	}{
		{"greeter-signer", "app:greeter", false},
		{"greeter-signer", "repo:greeter", false},
		{"app-signer", "app:x", true},
		{"app-signer", "repo:x", false},
	} {
		if got := p.Allowed(tt.subject, NewPermission(PermAdmin, tt.target, ActionDeploy)); got != tt.allowed {
			t.Errorf("%s deploying %s: allowed=%v, want %v", tt.subject, tt.target, got, tt.allowed)
		}
	}
}

func TestRevoke(t *testing.T) {
	p := NewPolicy(false)
	p.Grant("s", NewPermission(PermAdmin, "app:x", ActionDeploy))
	if !p.Allowed("s", NewPermission(PermAdmin, "app:x", ActionDeploy)) {
		t.Fatal("grant missing")
	}
	p.Revoke("s")
	if p.Allowed("s", NewPermission(PermAdmin, "app:x", ActionDeploy)) {
		t.Fatal("revoke ineffective")
	}
}

// TestTypeMismatchNeverImplies: a grant of another type (here the zero
// type) implies no admin permission, however wide its target and actions.
func TestTypeMismatchNeverImplies(t *testing.T) {
	p := NewPolicy(false)
	p.Grant("s", Permission{Target: "*", Actions: []string{"*"}})
	if p.Allowed("s", NewPermission(PermAdmin, "app:x", ActionDeploy)) {
		t.Fatal("untyped grant implied an admin permission")
	}
}

// Property: a permission implies itself, and prefix-wildcard grants imply
// any extension of the prefix.
func TestImpliesProperty(t *testing.T) {
	sanitize := func(s string) string {
		out := make([]rune, 0, len(s))
		for _, r := range s {
			if r != '*' && r > 0x20 && r < 0x7f {
				out = append(out, r)
			}
			if len(out) > 12 {
				break
			}
		}
		if len(out) == 0 {
			return "x"
		}
		return string(out)
	}
	prop := func(rawTarget, rawSuffix string) bool {
		target, suffix := sanitize(rawTarget), sanitize(rawSuffix)
		self := NewPermission(PermAdmin, target, ActionDeploy)
		if !self.implies(self) {
			return false
		}
		wild := NewPermission(PermAdmin, target+"*", ActionDeploy)
		return wild.implies(NewPermission(PermAdmin, target+suffix, ActionDeploy))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSubjects(t *testing.T) {
	p := NewPolicy(false)
	p.Grant("a", NewPermission(PermAdmin, "*", "*"))
	p.Grant("b", NewPermission(PermAdmin, "*", "*"))
	subs := p.Subjects()
	if len(subs) != 2 {
		t.Fatalf("Subjects = %v", subs)
	}
}
