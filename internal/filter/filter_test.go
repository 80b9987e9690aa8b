package filter

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMatches(t *testing.T) {
	props := map[string]any{
		"objectClass": "http.Service",
		"port":        8080,
		"secure":      false,
		"version":     "1.4.2",
		"weight":      2.5,
		"aliases":     []string{"web", "www"},
		"empty":       "",
	}
	tests := []struct {
		name   string
		filter string
		want   bool
	}{
		{"equal string", "(objectClass=http.Service)", true},
		{"equal string miss", "(objectClass=log.Service)", false},
		{"attr case insensitive", "(OBJECTCLASS=http.Service)", true},
		{"value case sensitive", "(objectClass=HTTP.SERVICE)", false},
		{"int equal", "(port=8080)", true},
		{"int ge", "(port>=80)", true},
		{"int ge miss", "(port>=9000)", false},
		{"int le", "(port<=8080)", true},
		{"int le miss", "(port<=79)", false},
		{"bool equal", "(secure=false)", true},
		{"bool miss", "(secure=true)", false},
		{"float ge", "(weight>=2.0)", true},
		{"float le miss", "(weight<=2.0)", false},
		{"present", "(version=*)", true},
		{"present miss", "(nothere=*)", false},
		{"and", "(&(objectClass=http.Service)(port>=80))", true},
		{"and miss", "(&(objectClass=http.Service)(port>=9000))", false},
		{"or", "(|(port=1)(port=8080))", true},
		{"or miss", "(|(port=1)(port=2))", false},
		{"not", "(!(secure=true))", true},
		{"not miss", "(!(port=8080))", false},
		{"nested", "(&(|(objectClass=a)(objectClass=http.Service))(!(secure=true)))", true},
		{"substring prefix", "(objectClass=http*)", true},
		{"substring suffix", "(objectClass=*Service)", true},
		{"substring middle", "(objectClass=*ttp.Ser*)", true},
		{"substring multi", "(version=1*4*2)", true},
		{"substring miss", "(objectClass=ftp*)", false},
		{"multivalue hit", "(aliases=www)", true},
		{"multivalue substring", "(aliases=we*)", true},
		{"multivalue miss", "(aliases=mail)", false},
		{"empty value", "(empty=)", true},
		{"empty value miss", "(version=)", false},
		{"approx", "(objectClass~=HTTP. SERVICE)", true},
		{"approx miss", "(objectClass~=http.Services)", false},
		{"numeric as string prop", "(version>=1.4)", true},
		{"spaces around attr", "( port >=80)", true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f, err := Parse(tt.filter)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tt.filter, err)
			}
			if got := f.Matches(props); got != tt.want {
				t.Errorf("Matches(%q) = %v, want %v", tt.filter, got, tt.want)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(",
		")",
		"(a=b",
		"a=b",
		"(=b)",
		"(a>b)",
		"(a<b)",
		"(a~b)",
		"(&)",
		"(|)",
		"(!)",
		"(!(a=b)",
		"(a=b)(c=d)",
		"(a=b\\)",
		"(a(=b)",
		"(a*x=b)",
		"(a>=*)",
		"(a<=x*y)",
		// An attribute cannot begin with an operator character: the parser
		// reads these as composites with a malformed operand.
		"(&=v)",
		"(|=v)",
		"(!=v)",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestEscapes(t *testing.T) {
	props := map[string]any{
		"path": "a(b)c*d\\e",
		"star": "*",
	}
	f, err := Parse(`(path=a\(b\)c\*d\\e)`)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Matches(props) {
		t.Error("escaped literal did not match")
	}
	f = MustParse(`(star=\*)`)
	if !f.Matches(props) {
		t.Error("escaped star did not match literal star")
	}
	if MustParse(`(star=x)`).Matches(props) {
		t.Error("wrong literal matched")
	}
}

func TestMissingAttributeNeverMatches(t *testing.T) {
	f := MustParse("(!(missing=x))")
	// OSGi semantics: (!(missing=x)) matches when 'missing' is absent,
	// because the inner item evaluates to false.
	if !f.Matches(map[string]any{}) {
		t.Error("negated item over missing attribute should match")
	}
	for _, s := range []string{"(missing=x)", "(missing>=1)", "(missing=*)", "(missing=a*b)"} {
		if MustParse(s).Matches(map[string]any{"other": 1}) {
			t.Errorf("%s matched with attribute missing", s)
		}
	}
}

func TestStringCanonicalRoundTrip(t *testing.T) {
	inputs := []string{
		"(a=b)",
		"(&(a=b)(c>=1))",
		"(|(a=b)(!(c<=2)))",
		"(a=*)",
		"(a=x*y*z)",
		`(a=l\(i\)t)`,
		"(a~=b c)",
	}
	for _, s := range inputs {
		f := MustParse(s)
		canon := f.String()
		f2, err := Parse(canon)
		if err != nil {
			t.Fatalf("reparse of String(%q)=%q failed: %v", s, canon, err)
		}
		if f2.String() != canon {
			t.Errorf("String not canonical: %q -> %q", canon, f2.String())
		}
	}
}

// Property: any filter built from random equality items parses, and its
// String() form reparses to an identical canonical form.
func TestParsePrintRoundTripProperty(t *testing.T) {
	clean := func(s string, max int) string {
		var b strings.Builder
		for _, r := range s {
			// No filter syntax — and none of & | !, which at the start of
			// an attribute turn the comparison into a composite.
			if r > 0x20 && r < 0x7f && !strings.ContainsRune("()*\\=<>~&|!", r) {
				b.WriteRune(r)
			}
			if b.Len() >= max {
				break
			}
		}
		if b.Len() == 0 {
			return "x"
		}
		return b.String()
	}
	prop := func(attr, val string, ge bool) bool {
		a, v := clean(attr, 12), clean(val, 20)
		op := "="
		if ge {
			op = ">="
		}
		src := "(" + a + op + v + ")"
		f, err := Parse(src)
		if err != nil {
			return false
		}
		f2, err := Parse(f.String())
		if err != nil {
			return false
		}
		return f2.String() == f.String()
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))} // same inputs every run
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNilFilterMatchesEverything(t *testing.T) {
	var f *Filter
	if !f.Matches(map[string]any{"a": 1}) {
		t.Error("nil filter must match everything")
	}
	if f.String() != "" {
		t.Error("nil filter String should be empty")
	}
}

func TestMatchesCase(t *testing.T) {
	f := MustParse("(Name=x)")
	if !f.Matches(map[string]any{"name": "x"}) {
		t.Error("Matches should fold key case")
	}
	if f.MatchesCase(map[string]any{"name": "x"}) {
		t.Error("MatchesCase should not fold key case")
	}
	if !f.MatchesCase(map[string]any{"Name": "x"}) {
		t.Error("MatchesCase exact key failed")
	}
}

func TestSubstringEdge(t *testing.T) {
	tests := []struct {
		filter string
		value  string
		want   bool
	}{
		{"(a=x*)", "x", true},
		{"(a=x*)", "xy", true},
		{"(a=*x)", "x", true},
		{"(a=*x)", "yx", true},
		{"(a=x*x)", "xx", true},
		{"(a=x*x)", "x", false},
		{"(a=**)", "anything", true},
		{"(a=*a*a*)", "aa", true},
		{"(a=*a*a*)", "ab", false},
	}
	for _, tt := range tests {
		f := MustParse(tt.filter)
		got := f.Matches(map[string]any{"a": tt.value})
		if got != tt.want {
			t.Errorf("%s on %q = %v, want %v", tt.filter, tt.value, got, tt.want)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse("(&(objectClass=http.Service)(port>=80)(!(internal=true)))"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatch(b *testing.B) {
	f := MustParse("(&(objectClass=http.Service)(port>=80)(!(internal=true)))")
	props := map[string]any{"objectClass": "http.Service", "port": 8080, "internal": false}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.MatchesCase(props) {
			b.Fatal("no match")
		}
	}
}
