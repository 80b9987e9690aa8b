// Package manifest models OSGi bundle metadata: versions, version ranges,
// and the bundle manifest headers (Bundle-SymbolicName, Import-Package,
// Export-Package, ...) that drive the module-system resolver.
package manifest

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Version is an OSGi version: major.minor.micro.qualifier. Comparison is
// numeric on the first three segments and lexicographic on the qualifier.
type Version struct {
	Major     int
	Minor     int
	Micro     int
	Qualifier string
}

// VersionZero is the default version "0.0.0".
var VersionZero = Version{}

// ParseVersion parses "1", "1.2", "1.2.3" or "1.2.3.qualifier".
func ParseVersion(s string) (Version, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return VersionZero, nil
	}
	parts := strings.SplitN(s, ".", 4)
	var v Version
	var err error
	if v.Major, err = parseSegment(parts[0]); err != nil {
		return Version{}, fmt.Errorf("manifest: invalid version %q: %w", s, err)
	}
	if len(parts) > 1 {
		if v.Minor, err = parseSegment(parts[1]); err != nil {
			return Version{}, fmt.Errorf("manifest: invalid version %q: %w", s, err)
		}
	}
	if len(parts) > 2 {
		if v.Micro, err = parseSegment(parts[2]); err != nil {
			return Version{}, fmt.Errorf("manifest: invalid version %q: %w", s, err)
		}
	}
	if len(parts) > 3 {
		q := parts[3]
		if q == "" || !isQualifier(q) {
			return Version{}, fmt.Errorf("manifest: invalid version %q: bad qualifier", s)
		}
		v.Qualifier = q
	}
	return v, nil
}

func parseSegment(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("segment %q is not a number", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("segment %q is negative", s)
	}
	return n, nil
}

func isQualifier(s string) bool {
	for _, r := range s {
		switch {
		case 'a' <= r && r <= 'z', 'A' <= r && r <= 'Z', '0' <= r && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Compare returns -1, 0 or 1 comparing v to o in OSGi order.
func (v Version) Compare(o Version) int {
	if v.Major != o.Major {
		return sign(v.Major - o.Major)
	}
	if v.Minor != o.Minor {
		return sign(v.Minor - o.Minor)
	}
	if v.Micro != o.Micro {
		return sign(v.Micro - o.Micro)
	}
	return strings.Compare(v.Qualifier, o.Qualifier)
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

// String renders the shortest canonical form that round-trips.
func (v Version) String() string {
	if v.Qualifier != "" {
		return fmt.Sprintf("%d.%d.%d.%s", v.Major, v.Minor, v.Micro, v.Qualifier)
	}
	return fmt.Sprintf("%d.%d.%d", v.Major, v.Minor, v.Micro)
}

// VersionRange is an OSGi version range. The zero value is the unbounded
// range "[0.0.0, ∞)".
type VersionRange struct {
	Min        Version
	Max        Version
	IncludeMin bool
	IncludeMax bool
	HasMax     bool
}

// AnyVersion is the unbounded range accepting every version.
var AnyVersion = VersionRange{IncludeMin: true}

// ParseVersionRange parses either an interval form "[1.0,2.0)" / "(1.0,2.0]"
// or a bare version "1.0", which per OSGi means "[1.0, ∞)".
func ParseVersionRange(s string) (VersionRange, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return AnyVersion, nil
	}
	first := s[0]
	if first != '[' && first != '(' {
		v, err := ParseVersion(s)
		if err != nil {
			return VersionRange{}, err
		}
		return VersionRange{Min: v, IncludeMin: true}, nil
	}
	if len(s) < 2 {
		return VersionRange{}, errors.New("manifest: truncated version range")
	}
	last := s[len(s)-1]
	if last != ']' && last != ')' {
		return VersionRange{}, fmt.Errorf("manifest: version range %q missing closing bracket", s)
	}
	body := s[1 : len(s)-1]
	parts := strings.Split(body, ",")
	if len(parts) != 2 {
		return VersionRange{}, fmt.Errorf("manifest: version range %q must have two endpoints", s)
	}
	minV, err := ParseVersion(parts[0])
	if err != nil {
		return VersionRange{}, err
	}
	maxV, err := ParseVersion(parts[1])
	if err != nil {
		return VersionRange{}, err
	}
	r := VersionRange{
		Min:        minV,
		Max:        maxV,
		IncludeMin: first == '[',
		IncludeMax: last == ']',
		HasMax:     true,
	}
	if c := minV.Compare(maxV); c > 0 || (c == 0 && !(r.IncludeMin && r.IncludeMax)) {
		return VersionRange{}, fmt.Errorf("manifest: version range %q is empty", s)
	}
	return r, nil
}

// Includes reports whether v lies within the range.
func (r VersionRange) Includes(v Version) bool {
	cMin := v.Compare(r.Min)
	if cMin < 0 || (cMin == 0 && !r.IncludeMin) {
		return false
	}
	if !r.HasMax {
		return true
	}
	cMax := v.Compare(r.Max)
	if cMax > 0 || (cMax == 0 && !r.IncludeMax) {
		return false
	}
	return true
}

// String renders the canonical range text.
func (r VersionRange) String() string {
	if !r.HasMax {
		return r.Min.String()
	}
	open, closeB := "(", ")"
	if r.IncludeMin {
		open = "["
	}
	if r.IncludeMax {
		closeB = "]"
	}
	return open + r.Min.String() + "," + r.Max.String() + closeB
}
