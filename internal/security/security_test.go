package security

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestPolicyDefaultStance(t *testing.T) {
	allow := NewPolicy(true)
	deny := NewPolicy(false)
	perm := NewPermission(PermFile, "/data/x", ActionRead)
	if err := allow.Check("unknown", perm); err != nil {
		t.Errorf("default-allow denied: %v", err)
	}
	if err := deny.Check("unknown", perm); err == nil {
		t.Error("default-deny allowed")
	}
}

func TestGrantAndCheck(t *testing.T) {
	p := NewPolicy(false)
	p.Grant("tenant-a",
		NewPermission(PermFile, "/data/tenant-a/*", ActionRead, ActionWrite),
		NewPermission(PermSocket, "10.0.0.5:8080", ActionBind, ActionListen),
		NewPermission(PermService, "log.Service", ActionGet),
		NewPermission(PermPackage, "com.base.*", ActionImport),
	)

	tests := []struct {
		name    string
		subject string
		perm    Permission
		allowed bool
	}{
		{"own file read", "tenant-a", NewPermission(PermFile, "/data/tenant-a/db", ActionRead), true},
		{"own file write", "tenant-a", NewPermission(PermFile, "/data/tenant-a/db", ActionWrite), true},
		{"own file delete denied", "tenant-a", NewPermission(PermFile, "/data/tenant-a/db", ActionDelete), false},
		{"foreign file", "tenant-a", NewPermission(PermFile, "/data/tenant-b/db", ActionRead), false},
		{"exact socket bind", "tenant-a", NewPermission(PermSocket, "10.0.0.5:8080", ActionBind), true},
		{"other port", "tenant-a", NewPermission(PermSocket, "10.0.0.5:9090", ActionBind), false},
		{"service get", "tenant-a", NewPermission(PermService, "log.Service", ActionGet), true},
		{"service register denied", "tenant-a", NewPermission(PermService, "log.Service", ActionRegister), false},
		{"package prefix", "tenant-a", NewPermission(PermPackage, "com.base.util", ActionImport), true},
		{"package outside prefix", "tenant-a", NewPermission(PermPackage, "com.other", ActionImport), false},
		{"unknown subject", "tenant-b", NewPermission(PermFile, "/data/tenant-a/db", ActionRead), false},
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
	if !p.Allowed("admin", NewPermission(PermAdmin, "*", ActionLifecyle)) {
		t.Error("wildcard action grant failed")
	}
}

func TestSocketWildcards(t *testing.T) {
	p := NewPolicy(false)
	p.Grant("svc", NewPermission(PermSocket, "10.0.0.5:*", ActionBind))
	p.Grant("svc", NewPermission(PermSocket, "*:80", ActionConnect))
	if !p.Allowed("svc", NewPermission(PermSocket, "10.0.0.5:1234", ActionBind)) {
		t.Error("host:* failed")
	}
	if p.Allowed("svc", NewPermission(PermSocket, "10.0.0.6:1234", ActionBind)) {
		t.Error("wrong host allowed")
	}
	if !p.Allowed("svc", NewPermission(PermSocket, "192.168.1.1:80", ActionConnect)) {
		t.Error("*:port failed")
	}
	if p.Allowed("svc", NewPermission(PermSocket, "192.168.1.1:81", ActionConnect)) {
		t.Error("wrong port allowed")
	}
}

func TestRevoke(t *testing.T) {
	p := NewPolicy(false)
	p.Grant("s", NewPermission(PermFile, "/x", ActionRead))
	if !p.Allowed("s", NewPermission(PermFile, "/x", ActionRead)) {
		t.Fatal("grant missing")
	}
	p.Revoke("s")
	if p.Allowed("s", NewPermission(PermFile, "/x", ActionRead)) {
		t.Fatal("revoke ineffective")
	}
}

func TestTypeMismatchNeverImplies(t *testing.T) {
	p := NewPolicy(false)
	p.Grant("s", NewPermission(PermFile, "*", "*"))
	if p.Allowed("s", NewPermission(PermSocket, "1.2.3.4:80", ActionConnect)) {
		t.Fatal("file grant implied socket permission")
	}
}

// Property: a permission implies itself, and prefix-wildcard grants imply
// any extension of the prefix.
func TestImpliesProperty(t *testing.T) {
	sanitize := func(s string) string {
		out := make([]rune, 0, len(s))
		for _, r := range s {
			if r != '*' && r != ':' && r > 0x20 && r < 0x7f {
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
		self := NewPermission(PermFile, target, ActionRead)
		if !self.implies(self) {
			return false
		}
		wild := NewPermission(PermFile, target+"*", ActionRead)
		return wild.implies(NewPermission(PermFile, target+suffix, ActionRead))
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
