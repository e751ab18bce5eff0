// Package bindings implements the global semantics of ECA rules as described
// in Section 3 of the paper: rule evaluation state is a set of tuples of
// variable bindings, components communicate by exchanging such sets, and
// repeated variables act as join variables (natural join).
//
// Values can be literals (strings, numbers, booleans), references (URIs),
// or XML fragments (including marked-up events), mirroring the paper's
// "values/literals, references (URIs), XML or RDF fragments, or events".
package bindings

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/xmltree"
)

// Kind discriminates the value variants a variable may be bound to. It is
// one byte, so a Value packs it with its bool into one word.
type Kind uint8

// The kinds of values.
const (
	// String is a plain literal.
	String Kind = iota
	// Number is a numeric literal (stored as float64, like XPath numbers).
	Number
	// Bool is a boolean literal.
	Bool
	// URI is a reference to a Web resource.
	URI
	// XML is an XML fragment, e.g. a query result or a marked-up event.
	XML
)

// String returns the name of the kind.
func (k Kind) String() string {
	switch k {
	case String:
		return "string"
	case Number:
		return "number"
	case Bool:
		return "boolean"
	case URI:
		return "uri"
	case XML:
		return "xml"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a single binding value. The zero Value is the empty string
// literal.
type Value struct {
	kind Kind
	b    bool
	str  string
	num  float64
	node *xmltree.Node
}

// Str returns a string literal value.
func Str(s string) Value { return Value{kind: String, str: s} }

// Num returns a numeric literal value.
func Num(f float64) Value { return Value{kind: Number, num: f} }

// Boolean returns a boolean literal value.
func Boolean(b bool) Value { return Value{kind: Bool, b: b} }

// Ref returns a URI reference value.
func Ref(uri string) Value { return Value{kind: URI, str: uri} }

// Fragment returns an XML fragment value. The node is not copied; callers
// that go on to mutate the tree should pass a Clone.
func Fragment(n *xmltree.Node) Value { return Value{kind: XML, node: n} }

// Kind returns the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// Clone returns a deep copy of the value: XML fragments copy their whole
// node tree, so mutations of the clone (or the original) never reach the
// other. Scalar kinds are immutable and copy trivially.
func (v Value) Clone() Value {
	if v.kind == XML && v.node != nil {
		return Value{kind: XML, node: v.node.Clone()}
	}
	return v
}

// IsZero reports whether v is the zero value (the empty string literal).
func (v Value) IsZero() bool { return v == Value{} }

// Node returns the XML fragment of an XML value, or nil for other kinds.
func (v Value) Node() *xmltree.Node { return v.node }

// AsString returns the natural string rendering of the value: the literal
// itself, the URI, the formatted number, "true"/"false", or the string-value
// (text content) of an XML fragment.
func (v Value) AsString() string {
	switch v.kind {
	case String, URI:
		return v.str
	case Number:
		return formatNumber(v.num)
	case Bool:
		if v.b {
			return "true"
		}
		return "false"
	case XML:
		return v.node.TextContent()
	default:
		return ""
	}
}

// AsNumber returns the numeric interpretation of the value and whether the
// conversion succeeded. Strings and XML string-values are parsed; booleans
// convert to 0/1.
func (v Value) AsNumber() (float64, bool) {
	switch v.kind {
	case Number:
		return v.num, true
	case Bool:
		if v.b {
			return 1, true
		}
		return 0, true
	default:
		return parseNumber(v.AsString())
	}
}

// AsBool returns the boolean interpretation: booleans directly, numbers by
// non-zero, everything else by non-empty string-value.
func (v Value) AsBool() bool {
	switch v.kind {
	case Bool:
		return v.b
	case Number:
		return v.num != 0
	default:
		return v.AsString() != ""
	}
}

// Equal reports whether two values are equal for join purposes. URIs only
// compare with URIs, booleans with booleans. Strings, numbers and XML
// fragments compare by their string/numeric value (a number joins with a
// numeric string, matching the convention that XML-sourced data is untyped
// text); two XML fragments must additionally be structurally equal ignoring
// whitespace-only text. Equal values always have equal Keys, so hash joins
// bucketed by Key are exact. Equal builds no key string: it compares what
// the two Keys would be, and allocates nothing unless a value is XML.
func (v Value) Equal(w Value) bool {
	if !v.keyParts().same(w.keyParts()) {
		return false
	}
	if v.kind == XML && w.kind == XML {
		return xmltree.EqualIgnoringWhitespace(v.node, w.node)
	}
	return true
}

// Key returns a string that partitions values for hash joins: Equal values
// always have the same Key. Numbers and numeric strings share keys; URIs and
// booleans are segregated from textual values.
func (v Value) Key() string {
	var buf [64]byte
	return string(v.AppendKey(buf[:0]))
}

// AppendKey appends Key's bytes to b, reusing b's capacity, so hot-path key
// construction (Relation.Add dedup, hash-join bucketing, SNOOP initiator
// stores) does not allocate per value.
func (v Value) AppendKey(b []byte) []byte {
	p := v.keyParts()
	b = append(b, p.tag, ':')
	if p.tag == 'n' {
		return appendNumber(b, p.num)
	}
	return append(b, p.str...)
}

// keyParts is a Key before rendering: the tag letter before the colon, then
// either a number (tag 'n', rendered by appendNumber) or the text after the
// colon.
type keyParts struct {
	tag byte // 'u' URI, 'n' number or numeric text, 'b' boolean, 's' other text
	num float64
	str string
}

func (v Value) keyParts() keyParts {
	switch v.kind {
	case URI:
		return keyParts{tag: 'u', str: v.str}
	case Number:
		return keyParts{tag: 'n', num: v.num}
	case Bool:
		if v.b {
			return keyParts{tag: 'b', str: "true"}
		}
		return keyParts{tag: 'b', str: "false"}
	case XML:
		return textKeyParts(v.node.TextContent())
	default:
		return textKeyParts(v.str)
	}
}

func textKeyParts(s string) keyParts {
	if f, ok := parseNumber(s); ok {
		return keyParts{tag: 'n', num: f}
	}
	return keyParts{tag: 's', str: s}
}

// same reports whether p and q render the same Key. appendNumber renders
// distinct floats distinctly, except that 0 and -0 both render "0" (they
// are == as floats) and every NaN renders "NaN" (no NaN is == to any).
func (p keyParts) same(q keyParts) bool {
	if p.tag != q.tag {
		return false
	}
	if p.tag == 'n' {
		return p.num == q.num || (p.num != p.num && q.num != q.num)
	}
	return p.str == q.str
}

// parseNumber is strconv.ParseFloat(strings.TrimSpace(s), 64) reporting
// success instead of an error. ParseFloat allocates an error and a copy of
// s for every non-numeric string, and join keys ask about every text value;
// so text whose first byte cannot begin a float (a digit, a sign, a point,
// or the i/n of inf, infinity and nan) is rejected without calling it.
func parseNumber(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if s == "" || strings.IndexByte("0123456789+-.iInN", s[0]) < 0 {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

func appendNumber(b []byte, f float64) []byte {
	if f == float64(int64(f)) {
		return strconv.AppendInt(b, int64(f), 10)
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// String renders the value for debugging and trace output.
func (v Value) String() string {
	switch v.kind {
	case URI:
		return "<" + v.str + ">"
	case XML:
		return v.node.String()
	case String:
		return strconv.Quote(v.str)
	default:
		return v.AsString()
	}
}

func formatNumber(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
