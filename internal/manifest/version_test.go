package manifest

import (
	"testing"
	"testing/quick"
)

func TestParseVersion(t *testing.T) {
	tests := []struct {
		in   string
		want Version
		err  bool
	}{
		{"", Version{}, false},
		{"1", Version{Major: 1}, false},
		{"1.2", Version{Major: 1, Minor: 2}, false},
		{"1.2.3", Version{Major: 1, Minor: 2, Micro: 3}, false},
		{"1.2.3.beta-1", Version{1, 2, 3, "beta-1"}, false},
		{" 2.0.1 ", Version{Major: 2, Micro: 1}, false},
		{"a", Version{}, true},
		{"1.x", Version{}, true},
		{"-1.0", Version{}, true},
		{"1.2.3.", Version{}, true},
		{"1.2.3.q!", Version{}, true},
	}
	for _, tt := range tests {
		got, err := ParseVersion(tt.in)
		if (err != nil) != tt.err {
			t.Errorf("ParseVersion(%q) error = %v, wantErr %v", tt.in, err, tt.err)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseVersion(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestVersionCompare(t *testing.T) {
	ordered := []string{"0.0.0", "0.0.1", "0.1.0", "0.9.9", "1.0.0", "1.0.0.alpha", "1.0.0.beta", "1.0.1", "2.0.0"}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			a, b := MustParseVersion(ordered[i]), MustParseVersion(ordered[j])
			got := a.Compare(b)
			want := sign(i - j)
			if got != want {
				t.Errorf("Compare(%s, %s) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestVersionString(t *testing.T) {
	for _, s := range []string{"0.0.0", "1.2.3", "1.2.3.rc1"} {
		if got := MustParseVersion(s).String(); got != s {
			t.Errorf("String round trip: %q -> %q", s, got)
		}
	}
	if got := MustParseVersion("1.2").String(); got != "1.2.0" {
		t.Errorf("short form canonicalization: got %q, want 1.2.0", got)
	}
}

func TestParseVersionRange(t *testing.T) {
	tests := []struct {
		in       string
		includes []string
		excludes []string
		err      bool
	}{
		{"", []string{"0.0.0", "99.0.0"}, nil, false},
		{"1.0", []string{"1.0.0", "2.5.0"}, []string{"0.9.9"}, false},
		{"[1.0,2.0)", []string{"1.0.0", "1.9.9"}, []string{"0.9.9", "2.0.0"}, false},
		{"[1.0,2.0]", []string{"1.0.0", "2.0.0"}, []string{"2.0.1"}, false},
		{"(1.0,2.0)", []string{"1.0.1"}, []string{"1.0.0", "2.0.0"}, false},
		{"(1.0,2.0]", []string{"2.0.0"}, []string{"1.0.0"}, false},
		{"[1.0.0,1.0.0]", []string{"1.0.0"}, []string{"1.0.1", "0.9.9"}, false},
		{"[2.0,1.0]", nil, nil, true},
		{"(1.0,1.0)", nil, nil, true},
		{"[1.0,1.0)", nil, nil, true},
		{"[1.0", nil, nil, true},
		{"[1.0,2.0,3.0]", nil, nil, true},
		{"[x,2.0]", nil, nil, true},
	}
	for _, tt := range tests {
		r, err := ParseVersionRange(tt.in)
		if (err != nil) != tt.err {
			t.Errorf("ParseVersionRange(%q) error = %v, wantErr %v", tt.in, err, tt.err)
			continue
		}
		if err != nil {
			continue
		}
		for _, v := range tt.includes {
			if !r.Includes(MustParseVersion(v)) {
				t.Errorf("range %q should include %s", tt.in, v)
			}
		}
		for _, v := range tt.excludes {
			if r.Includes(MustParseVersion(v)) {
				t.Errorf("range %q should exclude %s", tt.in, v)
			}
		}
	}
}

func TestVersionRangeString(t *testing.T) {
	for _, s := range []string{"[1.0.0,2.0.0)", "(1.0.0,2.0.0]", "[1.0.0,1.0.0]", "1.0.0"} {
		r := MustParseVersionRange(s)
		if got := r.String(); got != s {
			t.Errorf("range String round trip: %q -> %q", s, got)
		}
	}
}

// Property: range parse/print round-trips and Includes is consistent with
// endpoint comparison.
func TestVersionRangeProperty(t *testing.T) {
	prop := func(aMaj, aMin, bMaj, bMin uint8, incMin, incMax bool) bool {
		lo := Version{Major: int(aMaj), Minor: int(aMin)}
		hi := Version{Major: int(bMaj), Minor: int(bMin)}
		if lo.Compare(hi) > 0 {
			lo, hi = hi, lo
		}
		if lo.Compare(hi) == 0 {
			incMin, incMax = true, true
		}
		r := VersionRange{Min: lo, Max: hi, IncludeMin: incMin, IncludeMax: incMax, HasMax: true}
		r2, err := ParseVersionRange(r.String())
		if err != nil {
			return false
		}
		if r2 != r {
			return false
		}
		// Endpoint membership must agree with inclusivity flags.
		if r.Includes(lo) != incMin {
			return false
		}
		if r.Includes(hi) != incMax && lo.Compare(hi) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare is antisymmetric and transitive-ish over random triples.
func TestVersionCompareProperty(t *testing.T) {
	gen := func(a, b, c uint8) Version {
		return Version{Major: int(a % 4), Minor: int(b % 4), Micro: int(c % 4)}
	}
	prop := func(a1, a2, a3, b1, b2, b3 uint8) bool {
		va, vb := gen(a1, a2, a3), gen(b1, b2, b3)
		if va.Compare(vb) != -vb.Compare(va) {
			return false
		}
		if va.Compare(va) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// MustParseVersion panics on parse failure; for statically known versions.
func MustParseVersion(s string) Version {
	v, err := ParseVersion(s)
	if err != nil {
		panic(err)
	}
	return v
}

// MustParseVersionRange panics on parse failure.
func MustParseVersionRange(s string) VersionRange {
	r, err := ParseVersionRange(s)
	if err != nil {
		panic(err)
	}
	return r
}
