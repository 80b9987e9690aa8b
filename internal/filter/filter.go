// Package filter implements the OSGi service filter language, the RFC
// 1960-derived LDAP search filter syntax used throughout the platform to
// select services and instances:
//
//	(&(objectClass=http.Service)(port>=80)(!(internal=true)))
//
// Supported operators are =, ~= (approximate), >=, <=, presence (=*) and
// substring patterns (a=*b*c). Values compare numerically when the
// property value is a numeric Go type, as booleans for bools, and as
// strings otherwise. Multi-valued properties (slices) match when any
// element matches.
package filter

import (
	"fmt"
	"strconv"
	"strings"
)

// Filter is a parsed, immutable filter expression.
type Filter struct {
	root node
	text string
}

// Parse compiles the filter string s.
func Parse(s string) (*Filter, error) {
	p := &parser{input: s}
	n, err := p.parseFilter()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, &SyntaxError{Filter: s, Pos: p.pos, Msg: "trailing characters"}
	}
	return &Filter{root: n, text: s}, nil
}

// Matches reports whether props satisfies the filter. Property names are
// case-insensitive, as in OSGi.
func (f *Filter) Matches(props map[string]any) bool {
	if f == nil {
		return true
	}
	return f.root.matches(normalizeKeys(props), true)
}

// MatchesCase is Matches with case-sensitive property names.
func (f *Filter) MatchesCase(props map[string]any) bool {
	if f == nil {
		return true
	}
	return f.root.matches(props, false)
}

// String returns the canonical text of the filter.
func (f *Filter) String() string {
	if f == nil {
		return ""
	}
	return f.root.describe()
}

// SyntaxError describes a malformed filter string.
type SyntaxError struct {
	Filter string
	Pos    int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("filter: invalid filter %q at position %d: %s", e.Filter, e.Pos, e.Msg)
}

func normalizeKeys(props map[string]any) map[string]any {
	out := make(map[string]any, len(props))
	for k, v := range props {
		out[strings.ToLower(k)] = v
	}
	return out
}

type node interface {
	// matches evaluates the node; fold selects case-insensitive property
	// names (the parsed attribute is pre-lowered in attrFold).
	matches(props map[string]any, fold bool) bool
	describe() string
}

type andNode struct{ children []node }

func (n *andNode) matches(props map[string]any, fold bool) bool {
	for _, c := range n.children {
		if !c.matches(props, fold) {
			return false
		}
	}
	return true
}

func (n *andNode) describe() string { return describeComposite("&", n.children) }

type orNode struct{ children []node }

func (n *orNode) matches(props map[string]any, fold bool) bool {
	for _, c := range n.children {
		if c.matches(props, fold) {
			return true
		}
	}
	return false
}

func (n *orNode) describe() string { return describeComposite("|", n.children) }

type notNode struct{ child node }

func (n *notNode) matches(props map[string]any, fold bool) bool {
	return !n.child.matches(props, fold)
}

func (n *notNode) describe() string { return "(!" + n.child.describe() + ")" }

func describeComposite(op string, children []node) string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(op)
	for _, c := range children {
		b.WriteString(c.describe())
	}
	b.WriteByte(')')
	return b.String()
}

type compareOp int

const (
	opEqual compareOp = iota + 1
	opApprox
	opGreaterEq
	opLessEq
	opPresent
	opSubstring
)

type itemNode struct {
	attr     string // attribute name as written
	attrFold string // lower-cased attribute name
	op       compareOp
	value    string   // literal for comparisons
	parts    []string // substring segments; empty strings at ends mean open
}

func (n *itemNode) matches(props map[string]any, fold bool) bool {
	key := n.attr
	if fold {
		key = n.attrFold
	}
	v, ok := props[key]
	if !ok {
		return false
	}
	if n.op == opPresent {
		return true
	}
	return matchValue(v, n)
}

func (n *itemNode) describe() string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(n.attr)
	switch n.op {
	case opEqual:
		b.WriteByte('=')
		b.WriteString(escapeValue(n.value))
	case opApprox:
		b.WriteString("~=")
		b.WriteString(escapeValue(n.value))
	case opGreaterEq:
		b.WriteString(">=")
		b.WriteString(escapeValue(n.value))
	case opLessEq:
		b.WriteString("<=")
		b.WriteString(escapeValue(n.value))
	case opPresent:
		b.WriteString("=*")
	case opSubstring:
		b.WriteByte('=')
		for i, p := range n.parts {
			if i > 0 {
				b.WriteByte('*')
			}
			b.WriteString(escapeValue(p))
		}
	}
	b.WriteByte(')')
	return b.String()
}

func escapeValue(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '(', ')', '*', '\\':
			b.WriteByte('\\')
		}
		b.WriteRune(r)
	}
	return b.String()
}

// matchValue applies the item comparison to a single property value,
// recursing into slices.
func matchValue(v any, n *itemNode) bool {
	switch vv := v.(type) {
	case []string:
		for _, e := range vv {
			if matchValue(e, n) {
				return true
			}
		}
		return false
	case []any:
		for _, e := range vv {
			if matchValue(e, n) {
				return true
			}
		}
		return false
	}
	switch n.op {
	case opSubstring:
		s, ok := stringOf(v)
		return ok && matchSubstring(s, n.parts)
	case opApprox:
		s, ok := stringOf(v)
		return ok && approxEqual(s, n.value)
	case opEqual, opGreaterEq, opLessEq:
		return compare(v, n.value, n.op)
	default:
		return false
	}
}

func stringOf(v any) (string, bool) {
	switch vv := v.(type) {
	case string:
		return vv, true
	case fmt.Stringer:
		return vv.String(), true
	case bool:
		return strconv.FormatBool(vv), true
	case int:
		return strconv.Itoa(vv), true
	case int32:
		return strconv.FormatInt(int64(vv), 10), true
	case int64:
		return strconv.FormatInt(vv, 10), true
	case uint16:
		return strconv.FormatUint(uint64(vv), 10), true
	case uint32:
		return strconv.FormatUint(uint64(vv), 10), true
	case uint64:
		return strconv.FormatUint(vv, 10), true
	case float32:
		return strconv.FormatFloat(float64(vv), 'g', -1, 32), true
	case float64:
		return strconv.FormatFloat(vv, 'g', -1, 64), true
	default:
		return "", false
	}
}

func compare(v any, lit string, op compareOp) bool {
	switch vv := v.(type) {
	case bool:
		b, err := strconv.ParseBool(lit)
		if err != nil {
			return false
		}
		if op == opEqual {
			return vv == b
		}
		return false
	case int, int32, int64, uint16, uint32, uint64:
		iv := toInt64(vv)
		lv, err := strconv.ParseInt(strings.TrimSpace(lit), 10, 64)
		if err != nil {
			return false
		}
		return cmpOrdered(iv, lv, op)
	case float32:
		return compareFloat(float64(vv), lit, op)
	case float64:
		return compareFloat(vv, lit, op)
	default:
		s, ok := stringOf(v)
		if !ok {
			return false
		}
		return cmpOrdered(s, lit, op)
	}
}

func compareFloat(fv float64, lit string, op compareOp) bool {
	lv, err := strconv.ParseFloat(strings.TrimSpace(lit), 64)
	if err != nil {
		return false
	}
	return cmpOrdered(fv, lv, op)
}

func toInt64(v any) int64 {
	switch vv := v.(type) {
	case int:
		return int64(vv)
	case int32:
		return int64(vv)
	case int64:
		return vv
	case uint16:
		return int64(vv)
	case uint32:
		return int64(vv)
	case uint64:
		return int64(vv)
	}
	return 0
}

func cmpOrdered[T int64 | float64 | string](a, b T, op compareOp) bool {
	switch op {
	case opEqual:
		return a == b
	case opGreaterEq:
		return a >= b
	case opLessEq:
		return a <= b
	}
	return false
}

// approxEqual implements ~=: case-insensitive comparison ignoring all
// whitespace, the common OSGi framework behaviour.
func approxEqual(a, b string) bool {
	return foldStrip(a) == foldStrip(b)
}

func foldStrip(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r == ' ' || r == '\t' || r == '\n' || r == '\r' {
			continue
		}
		b.WriteRune(lowerRune(r))
	}
	return b.String()
}

func lowerRune(r rune) rune {
	if 'A' <= r && r <= 'Z' {
		return r + ('a' - 'A')
	}
	return r
}

// matchSubstring checks s against parts, where parts[0] anchors the prefix
// and parts[len-1] anchors the suffix (empty segments mean unanchored).
func matchSubstring(s string, parts []string) bool {
	if len(parts) == 0 {
		return s == ""
	}
	first, last := parts[0], parts[len(parts)-1]
	if !strings.HasPrefix(s, first) {
		return false
	}
	s = s[len(first):]
	middle := parts[1 : len(parts)-1]
	if len(parts) == 1 {
		return s == ""
	}
	for _, m := range middle {
		idx := strings.Index(s, m)
		if idx < 0 {
			return false
		}
		s = s[idx+len(m):]
	}
	return strings.HasSuffix(s, last)
}

type parser struct {
	input string
	pos   int
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Filter: p.input, Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t') {
		p.pos++
	}
}

func (p *parser) parseFilter() (node, error) {
	p.skipSpace()
	if p.pos >= len(p.input) || p.input[p.pos] != '(' {
		return nil, p.errf("expected '('")
	}
	p.pos++
	n, err := p.parseComp()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos >= len(p.input) || p.input[p.pos] != ')' {
		return nil, p.errf("expected ')'")
	}
	p.pos++
	return n, nil
}

func (p *parser) parseComp() (node, error) {
	p.skipSpace()
	if p.pos >= len(p.input) {
		return nil, p.errf("unexpected end of filter")
	}
	switch p.input[p.pos] {
	case '&':
		p.pos++
		children, err := p.parseList()
		if err != nil {
			return nil, err
		}
		return &andNode{children: children}, nil
	case '|':
		p.pos++
		children, err := p.parseList()
		if err != nil {
			return nil, err
		}
		return &orNode{children: children}, nil
	case '!':
		p.pos++
		child, err := p.parseFilter()
		if err != nil {
			return nil, err
		}
		return &notNode{child: child}, nil
	default:
		return p.parseItem()
	}
}

func (p *parser) parseList() ([]node, error) {
	var children []node
	for {
		p.skipSpace()
		if p.pos >= len(p.input) {
			return nil, p.errf("unterminated composite")
		}
		if p.input[p.pos] == ')' {
			if len(children) == 0 {
				return nil, p.errf("empty composite filter")
			}
			return children, nil
		}
		child, err := p.parseFilter()
		if err != nil {
			return nil, err
		}
		children = append(children, child)
	}
}

func (p *parser) parseItem() (node, error) {
	attr, err := p.parseAttr()
	if err != nil {
		return nil, err
	}
	if p.pos >= len(p.input) {
		return nil, p.errf("missing operator")
	}
	var op compareOp
	switch p.input[p.pos] {
	case '=':
		op = opEqual
		p.pos++
	case '~':
		op = opApprox
		p.pos++
		if p.pos >= len(p.input) || p.input[p.pos] != '=' {
			return nil, p.errf("expected '=' after '~'")
		}
		p.pos++
	case '>':
		op = opGreaterEq
		p.pos++
		if p.pos >= len(p.input) || p.input[p.pos] != '=' {
			return nil, p.errf("expected '=' after '>'")
		}
		p.pos++
	case '<':
		op = opLessEq
		p.pos++
		if p.pos >= len(p.input) || p.input[p.pos] != '=' {
			return nil, p.errf("expected '=' after '<'")
		}
		p.pos++
	default:
		return nil, p.errf("invalid operator %q", p.input[p.pos])
	}
	segments, hasStar, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	item := &itemNode{attr: attr, attrFold: strings.ToLower(attr), op: op}
	switch {
	case op == opEqual && hasStar && len(segments) == 2 && segments[0] == "" && segments[1] == "":
		item.op = opPresent
	case op == opEqual && hasStar:
		item.op = opSubstring
		item.parts = segments
	case hasStar:
		return nil, p.errf("wildcard only allowed with '='")
	default:
		item.value = segments[0]
	}
	return item, nil
}

func (p *parser) parseAttr() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		if c == '=' || c == '~' || c == '>' || c == '<' || c == '(' || c == ')' {
			break
		}
		p.pos++
	}
	attr := strings.TrimSpace(p.input[start:p.pos])
	if attr == "" {
		return "", p.errf("empty attribute name")
	}
	if strings.ContainsAny(attr, "*\\") {
		return "", p.errf("attribute name %q contains invalid characters", attr)
	}
	return attr, nil
}

// parseValue reads the value of an item up to the closing ')', handling
// backslash escapes and '*' separators. It returns the literal segments
// between stars and whether any unescaped star was present.
func (p *parser) parseValue() (segments []string, hasStar bool, err error) {
	var cur strings.Builder
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		switch c {
		case ')':
			segments = append(segments, cur.String())
			if !hasStar && segments[0] == "" {
				// Empty value is legal in LDAP ("(a=)") and matches the
				// empty string.
				return segments, false, nil
			}
			return segments, hasStar, nil
		case '(':
			return nil, false, p.errf("unescaped '(' in value")
		case '*':
			hasStar = true
			segments = append(segments, cur.String())
			cur.Reset()
			p.pos++
		case '\\':
			if p.pos+1 >= len(p.input) {
				return nil, false, p.errf("dangling escape")
			}
			p.pos++
			cur.WriteByte(p.input[p.pos])
			p.pos++
		default:
			cur.WriteByte(c)
			p.pos++
		}
	}
	return nil, false, p.errf("unterminated value")
}
