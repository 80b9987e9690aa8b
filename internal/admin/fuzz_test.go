package admin

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzSplitCommand feeds hostile admin lines through the tokenizer and
// every resulting token through the argument mappers: nothing panics, no
// token is empty, tokenizing only drops unquoted spaces and tabs, and
// Count yields a positive count or an error.
func FuzzSplitCommand(f *testing.F) {
	for _, seed := range []string{
		`CALL echo Upper hello`,
		`CALL echo Upper "hello world"`,
		`  spaced   out  `,
		``,
		`a "b c" d`,
		"42", "-7", "2.5", "true", "hello", `"quoted"`,
		`LOG -1`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		toks := SplitCommand(line)
		for i, tok := range toks {
			if tok == "" {
				t.Fatalf("SplitCommand(%q)[%d] is empty", line, i)
			}
			switch v := ParseCallArg(tok).(type) {
			case int64, float64, bool, string:
			default:
				t.Fatalf("ParseCallArg(%q) = %T", tok, v)
			}
			if n, err := Count(tok); (err == nil) != (n > 0) {
				t.Fatalf("Count(%q) = %d, %v", tok, n, err)
			}
		}
		if !utf8.ValidString(line) {
			return
		}
		var kept strings.Builder
		inQuote := false
		for _, r := range line {
			if r == '"' {
				inQuote = !inQuote
			}
			if inQuote || (r != ' ' && r != '\t') {
				kept.WriteRune(r)
			}
		}
		if got := strings.Join(toks, ""); got != kept.String() {
			t.Fatalf("SplitCommand(%q) = %q: joined %q, want %q", line, toks, got, kept.String())
		}
	})
}
