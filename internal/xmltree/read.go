package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// The reader accepts exactly what a strict encoding/xml Decoder token loop
// accepts and builds the tree that loop would build, quirks included: an
// unbound prefix is kept as the namespace, attributes need no whitespace
// between them, several top-level elements and text are allowed, a
// DOCTYPE is skipped, and the character checks run after entity expansion.
// FuzzParse holds it to the encoding/xml reference.

const xmlURL = "http://www.w3.org/XML/1998/namespace"

// A pooled parser keeps its buffers between documents only up to these
// sizes, so one large document does not pin its memory in the pool.
const (
	maxPooledBytes = 64 << 10
	maxPooledSlots = 4 << 10
)

// MaxDepth is how deeply Parse lets elements nest: the root element is at
// depth 1, and a document with an element deeper than MaxDepth is an error.
// The figures, examples and tests of this repository nest at most 6 deep;
// the bound keeps every recursive walk of a parsed tree (String, Clone,
// XPath evaluation) shallow, whatever a request body holds.
const MaxDepth = 256

var parsers = sync.Pool{New: func() any { return new(parser) }}

// parser holds one parse's state; its slices are reused across documents.
type parser struct {
	in    bytes.Buffer
	src   []byte
	pos   int
	text  []byte      // decoded character data when it differs from src
	open  []openElem  // the document node, then the open elements
	kids  []*Node     // children of the open nodes, in document order
	binds []nsBinding // in-scope xmlns declarations, innermost last
	attrs []rawAttr   // the start tag being read

	// The innermost binding of each prefix, as an index into binds, so a
	// lookup costs the same however many declarations are in scope.
	prefixes map[string]int
	def      int // the innermost default-namespace binding, or -1
}

type openElem struct {
	node  *Node
	qname qname // raw name, matched against the end tag
	kids  int   // len(kids) when the node opened
	binds int   // len(binds) before its declarations
}

// nsBinding maps a prefix, or the default namespace, to a URI. prev is
// the binding it shadows, -1 for none, restored when its element closes.
type nsBinding struct {
	prefix, uri string
	def         bool
	prev        int
}

type rawAttr struct {
	name  qname
	value string
}

// qname is a name read from src. colon is the offset of the prefix
// separator, or -1 when the name has no prefix.
type qname struct{ start, colon, end int }

// Parse reads a complete XML document from r into a document node.
// Element and attribute namespaces are resolved to URIs; the original xmlns
// declarations are retained in the attribute lists. Elements nested deeper
// than MaxDepth are an error.
func Parse(r io.Reader) (*Node, error) {
	p := parsers.Get().(*parser)
	defer p.release()
	if _, err := p.in.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	return p.parse()
}

// ParseString parses a document from a string. See Parse.
func ParseString(s string) (*Node, error) {
	p := parsers.Get().(*parser)
	defer p.release()
	p.in.WriteString(s)
	return p.parse()
}

// release drops every reference into the last document and returns p to
// the pool.
func (p *parser) release() {
	if cap(p.binds) > maxPooledSlots {
		p.prefixes = nil
	}
	p.open = reuse(p.open)
	p.kids = reuse(p.kids)
	p.binds = reuse(p.binds)
	p.attrs = reuse(p.attrs)
	clear(p.prefixes)
	p.src = nil
	if p.in.Cap() > maxPooledBytes {
		p.in = bytes.Buffer{}
	}
	p.in.Reset()
	if cap(p.text) > maxPooledBytes {
		p.text = nil
	}
	parsers.Put(p)
}

// reuse empties s for the next document, or drops it when it grew large.
func reuse[T any](s []T) []T {
	if cap(s) > maxPooledSlots {
		return nil
	}
	clear(s)
	return s[:0]
}

func (p *parser) parse() (*Node, error) {
	p.src, p.pos = p.in.Bytes(), 0
	p.def = -1
	doc := NewDocument()
	p.open = append(p.open, openElem{node: doc})
	src := p.src
	for p.pos < len(src) {
		if src[p.pos] != '<' {
			data, err := p.charData(-1, false)
			if err != nil {
				return nil, err
			}
			p.add(&Node{Kind: TextNode, Text: string(data)})
			continue
		}
		p.pos++
		if p.pos == len(src) {
			return nil, p.eof()
		}
		var err error
		switch src[p.pos] {
		case '/':
			p.pos++
			err = p.endTag()
		case '?':
			p.pos++
			err = p.procInst()
		case '!':
			p.pos++
			err = p.bang()
		default:
			err = p.startTag()
		}
		if err != nil {
			return nil, err
		}
	}
	if len(p.open) > 1 {
		return nil, p.eof()
	}
	p.close(p.open[0])
	if doc.Root() == nil {
		return nil, errors.New("xmltree: parse: document has no root element")
	}
	return doc, nil
}

// add appends n to the innermost open node.
func (p *parser) add(n *Node) {
	n.Parent = p.open[len(p.open)-1].node
	p.kids = append(p.kids, n)
}

// close gives e's node its children, exactly sized, and drops e's
// namespace declarations.
func (p *parser) close(e openElem) {
	if kids := p.kids[e.kids:]; len(kids) > 0 {
		e.node.Children = append([]*Node(nil), kids...)
		clear(kids)
		p.kids = p.kids[:e.kids]
	}
	for i := len(p.binds) - 1; i >= e.binds; i-- {
		switch b := p.binds[i]; {
		case b.def:
			p.def = b.prev
		case b.prev < 0:
			delete(p.prefixes, b.prefix)
		default:
			p.prefixes[b.prefix] = b.prev
		}
	}
	clear(p.binds[e.binds:])
	p.binds = p.binds[:e.binds]
}

func (p *parser) syntaxError(pos int, msg string) error {
	line := 1 + bytes.Count(p.src[:pos], []byte{'\n'})
	return fmt.Errorf("xmltree: parse: XML syntax error on line %d: %s", line, msg)
}

func (p *parser) eof() error { return p.syntaxError(len(p.src), "unexpected EOF") }

// startTag reads a start tag from just after its '<'.
func (p *parser) startTag() error {
	src := p.src
	name, err := p.nsname("element name after <")
	if err != nil {
		return err
	}
	attrs := p.attrs[:0]
	empty := false
	for {
		p.skipSpace()
		if p.pos == len(src) {
			return p.eof()
		}
		if b := src[p.pos]; b == '/' || b == '>' {
			p.pos++
			if b == '/' {
				if p.pos == len(src) {
					return p.eof()
				}
				if src[p.pos] != '>' {
					return p.syntaxError(p.pos+1, "expected /> in element")
				}
				p.pos++
				empty = true
			}
			break
		}
		an, err := p.nsname("attribute name in element")
		if err != nil {
			return err
		}
		p.skipSpace()
		if p.pos == len(src) {
			return p.eof()
		}
		if src[p.pos] != '=' {
			return p.syntaxError(p.pos+1, "attribute name without = in element")
		}
		p.pos++
		p.skipSpace()
		if p.pos == len(src) {
			return p.eof()
		}
		q := src[p.pos]
		if q != '"' && q != '\'' {
			return p.syntaxError(p.pos+1, "unquoted or missing attribute value in element")
		}
		p.pos++
		data, err := p.charData(int(q), false)
		if err != nil {
			return err
		}
		var value string
		if p.isDecl(an) {
			value = internBytes(data)
		} else {
			value = string(data)
		}
		attrs = append(attrs, rawAttr{an, value})
	}
	p.attrs = attrs

	if len(p.open) > MaxDepth {
		return p.syntaxError(p.pos, fmt.Sprintf("element <%s> nested deeper than %d", p.src[name.start:name.end], MaxDepth))
	}
	// The declarations apply to the element's own name and attributes.
	mark := len(p.binds)
	for _, a := range attrs {
		if p.isDecl(a.name) {
			p.bind(a.name, a.value)
		}
	}
	e := &Node{Kind: ElementNode, Name: p.elementName(name)}
	if len(attrs) > 0 {
		e.Attrs = make([]Attr, len(attrs))
		for i, a := range attrs {
			e.Attrs[i] = Attr{Name: p.attrName(a.name), Value: a.value}
		}
		clear(attrs)
	}
	p.add(e)
	open := openElem{node: e, qname: name, kids: len(p.kids), binds: mark}
	if empty {
		p.close(open)
	} else {
		p.open = append(p.open, open)
	}
	return nil
}

// endTag reads an end tag from just after its "</".
func (p *parser) endTag() error {
	name, err := p.nsname("element name after </")
	if err != nil {
		return err
	}
	p.skipSpace()
	if p.pos == len(p.src) {
		return p.eof()
	}
	if p.src[p.pos] != '>' {
		return p.syntaxError(p.pos+1, "invalid characters between </"+string(p.local(name))+" and >")
	}
	p.pos++
	top := p.open[len(p.open)-1]
	if len(p.open) == 1 {
		return p.syntaxError(p.pos, "unexpected end element </"+string(p.local(name))+">")
	}
	if !bytes.Equal(p.src[name.start:name.end], p.src[top.qname.start:top.qname.end]) {
		return p.syntaxError(p.pos, "element <"+string(p.src[top.qname.start:top.qname.end])+"> closed by </"+string(p.src[name.start:name.end])+">")
	}
	p.close(top)
	p.open[len(p.open)-1] = openElem{}
	p.open = p.open[:len(p.open)-1]
	return nil
}

// procInst reads a processing instruction from just after its "<?".
func (p *parser) procInst() error {
	start := p.pos
	end, err := p.name("target name after <?")
	if err != nil {
		return err
	}
	target := p.src[start:end]
	p.skipSpace()
	n := bytes.Index(p.src[p.pos:], []byte("?>"))
	if n < 0 {
		return p.eof()
	}
	inst := p.src[p.pos : p.pos+n]
	p.pos += n + 2
	if string(target) == "xml" {
		content := string(inst)
		if ver := procInst("version", content); ver != "" && ver != "1.0" {
			return fmt.Errorf("xmltree: parse: xml: unsupported version %q; only version 1.0 is supported", ver)
		}
		if enc := procInst("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return fmt.Errorf("xmltree: parse: xml: encoding %q declared but only UTF-8 is supported", enc)
		}
	}
	p.add(&Node{Kind: ProcInstNode, Name: Name{Local: internBytes(target)}, Text: string(inst)})
	return nil
}

// bang reads a comment, a CDATA section or a directive from just after
// its "<!".
func (p *parser) bang() error {
	src := p.src
	if p.pos == len(src) {
		return p.eof()
	}
	switch src[p.pos] {
	case '-':
		p.pos++
		if p.pos == len(src) {
			return p.eof()
		}
		if src[p.pos] != '-' {
			return p.syntaxError(p.pos+1, "invalid sequence <!- not part of <!--")
		}
		p.pos++
		n := bytes.Index(src[p.pos:], []byte("--"))
		if n < 0 || p.pos+n+2 == len(src) {
			return p.eof()
		}
		if src[p.pos+n+2] != '>' {
			return p.syntaxError(p.pos+n+3, `invalid sequence "--" not allowed in comments`)
		}
		p.add(&Node{Kind: CommentNode, Text: string(src[p.pos : p.pos+n])})
		p.pos += n + 3
		return nil
	case '[':
		p.pos++
		for i := 0; i < len("CDATA["); i++ {
			if p.pos == len(src) {
				return p.eof()
			}
			if src[p.pos] != "CDATA["[i] {
				return p.syntaxError(p.pos+1, "invalid <![ sequence")
			}
			p.pos++
		}
		data, err := p.charData(-1, true)
		if err != nil {
			return err
		}
		p.add(&Node{Kind: TextNode, Text: string(data)})
		return nil
	}
	return p.directive()
}

// directive skips a directive such as <!DOCTYPE ...> from just after its
// "<!", following encoding/xml: quoted '>' and '<' do not nest, an
// unquoted '<' opens a nested level unless it starts a <!-- comment -->,
// and the directive's first byte is taken without inspection.
func (p *parser) directive() error {
	src := p.src
	p.pos++
	var inquote byte
	depth := 0
	for {
		if p.pos == len(src) {
			return p.eof()
		}
		b := src[p.pos]
		p.pos++
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
	HandleB:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
			// in quotes, no special action
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for i := 0; i < len("!--"); i++ {
				if p.pos == len(src) {
					return p.eof()
				}
				b = src[p.pos]
				p.pos++
				if b != "!--"[i] {
					depth++
					goto HandleB
				}
			}
			var b0, b1 byte
			for {
				if p.pos == len(src) {
					return p.eof()
				}
				b = src[p.pos]
				p.pos++
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}

// charData reads character data from p.pos: text up to the next '<'
// (quote < 0), an attribute value up to its closing quote, or a CDATA
// section up to "]]>". Entities are expanded, "\r\n" and a lone '\r'
// become '\n', and then every character is checked. The result aliases
// src or p.text and is valid until the next call.
func (p *parser) charData(quote int, cdata bool) ([]byte, error) {
	src := p.src
	start := p.pos
	i := start
	for ; i < len(src); i++ {
		b := src[i]
		switch {
		case quote < 0 && b == '>' && i-start >= 2 && src[i-1] == ']' && src[i-2] == ']':
			if !cdata {
				return nil, p.syntaxError(i+1, "unescaped ]]> not in CDATA section")
			}
			p.pos = i + 1
			return p.checkChars(src[start : i-2])
		case b == '<' && !cdata:
			if quote >= 0 {
				return nil, p.syntaxError(i+1, "unescaped < inside quoted string")
			}
			p.pos = i
			return p.checkChars(src[start:i])
		case quote >= 0 && b == byte(quote):
			p.pos = i + 1
			return p.checkChars(src[start:i])
		case b == '&' && !cdata, b == '\r':
			return p.charDataSlow(quote, cdata, start, i)
		}
	}
	if cdata {
		return nil, p.syntaxError(i, "unexpected EOF in CDATA section")
	}
	if quote >= 0 {
		return nil, p.eof()
	}
	p.pos = i
	return p.checkChars(src[start:i])
}

// charDataSlow continues charData at src[i], the first byte that needs
// rewriting, copying the data into p.text. b0 and b1 are the two raw
// bytes before the current one, as encoding/xml tracks them to find "]]>";
// an entity reference resets them.
func (p *parser) charDataSlow(quote int, cdata bool, start, i int) ([]byte, error) {
	src := p.src
	buf := append(p.text[:0], src[start:i]...)
	var b0, b1 byte
	if i-start >= 2 {
		b0 = src[i-2]
	}
	if i-start >= 1 {
		b1 = src[i-1]
	}
	for {
		if i == len(src) {
			if cdata {
				return nil, p.syntaxError(i, "unexpected EOF in CDATA section")
			}
			if quote >= 0 {
				return nil, p.eof()
			}
			break
		}
		b := src[i]
		i++
		if quote < 0 && b0 == ']' && b1 == ']' && b == '>' {
			if !cdata {
				return nil, p.syntaxError(i, "unescaped ]]> not in CDATA section")
			}
			buf = buf[:len(buf)-2]
			break
		}
		if b == '<' && !cdata {
			if quote >= 0 {
				return nil, p.syntaxError(i, "unescaped < inside quoted string")
			}
			i--
			break
		}
		if quote >= 0 && b == byte(quote) {
			break
		}
		if b == '&' && !cdata {
			var err error
			if buf, i, err = p.entity(buf, i); err != nil {
				return nil, err
			}
			b0, b1 = 0, 0
			continue
		}
		switch {
		case b == '\r':
			buf = append(buf, '\n')
		case b1 == '\r' && b == '\n':
			// The '\r' already wrote the '\n'.
		default:
			buf = append(buf, b)
		}
		b0, b1 = b1, b
	}
	p.text = buf
	p.pos = i
	return p.checkChars(buf)
}

// entity expands the reference at src[i:], just after its '&', onto buf:
// one of the five predefined entities or a character reference, "&#"
// decimal or "&#x" hexadecimal digits up to unicode.MaxRune. A surrogate
// becomes U+FFFD. It returns the offset after the ';'.
func (p *parser) entity(buf []byte, i int) ([]byte, int, error) {
	src := p.src
	start := i - 1
	invalid := func(end int) error {
		ent := string(src[start:end])
		if src[end-1] != ';' {
			ent += " (no semicolon)"
		}
		return p.syntaxError(end, "invalid character entity "+ent)
	}
	if i == len(src) {
		return nil, 0, p.eof()
	}
	if src[i] == '#' {
		i++
		if i == len(src) {
			return nil, 0, p.eof()
		}
		base := uint64(10)
		if src[i] == 'x' {
			base = 16
			i++
		}
		digits := i
		var n uint64
		for ; i < len(src); i++ {
			d := digitVal(src[i])
			if d >= base {
				break
			}
			if n <= unicode.MaxRune {
				n = n*base + d
			}
		}
		if i == len(src) {
			return nil, 0, p.eof()
		}
		if src[i] != ';' || i == digits || n > unicode.MaxRune {
			return nil, 0, invalid(i)
		}
		return utf8.AppendRune(buf, rune(n)), i + 1, nil
	}
	name := i
	for i < len(src) && (src[i] >= utf8.RuneSelf || isNameByte(src[i])) {
		i++
	}
	if i == len(src) {
		return nil, 0, p.eof()
	}
	if src[i] != ';' {
		return nil, 0, invalid(i)
	}
	var c byte
	switch string(src[name:i]) {
	case "lt":
		c = '<'
	case "gt":
		c = '>'
	case "amp":
		c = '&'
	case "apos":
		c = '\''
	case "quot":
		c = '"'
	default:
		return nil, 0, invalid(i + 1)
	}
	return append(buf, c), i + 1, nil
}

// digitVal returns the value of a hexadecimal digit, or 16 for any other
// byte. Lower- and upper-case letters count, as in strconv.ParseUint.
func digitVal(b byte) uint64 {
	switch {
	case '0' <= b && b <= '9':
		return uint64(b - '0')
	case 'a' <= b && b <= 'f':
		return uint64(b - 'a' + 10)
	case 'A' <= b && b <= 'F':
		return uint64(b - 'A' + 10)
	}
	return 16
}

// checkChars reports data unless it is UTF-8 made of XML characters.
func (p *parser) checkChars(data []byte) ([]byte, error) {
	for i := 0; i < len(data); {
		if c := data[i]; c < utf8.RuneSelf {
			if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				return nil, p.syntaxError(p.pos, fmt.Sprintf("illegal character code %U", rune(c)))
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			return nil, p.syntaxError(p.pos, "invalid UTF-8")
		}
		if !isInCharacterRange(r) {
			return nil, p.syntaxError(p.pos, fmt.Sprintf("illegal character code %U", r))
		}
		i += size
	}
	return data, nil
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\r', '\n', '\t':
			p.pos++
		default:
			return
		}
	}
}

// name reads an XML name and returns its end offset. Like encoding/xml it
// takes every byte that may occur in a name, then checks the name against
// the XML 1.0 Appendix B classes; a name that runs into the end of the
// input is an unexpected EOF.
func (p *parser) name(what string) (int, error) {
	src := p.src
	start, i := p.pos, p.pos
	ascii := true
	for ; i < len(src); i++ {
		if b := src[i]; b >= utf8.RuneSelf {
			ascii = false
		} else if !isNameByte(b) {
			break
		}
	}
	if i == len(src) {
		return 0, p.eof()
	}
	if i == start {
		return 0, p.syntaxError(i, "expected "+what)
	}
	s := src[start:i]
	if ascii && !isNameStart(s[0]) || !ascii && !isNameUnicode(s) {
		return 0, p.syntaxError(i, "invalid XML name: "+string(s))
	}
	p.pos = i
	return i, nil
}

// nsname reads a name with at most one colon, which separates a
// non-empty prefix from a non-empty local part; otherwise the whole name
// is the local part.
func (p *parser) nsname(what string) (qname, error) {
	start := p.pos
	end, err := p.name(what)
	if err != nil {
		return qname{}, err
	}
	q := qname{start: start, colon: -1, end: end}
	s := p.src[start:end]
	c := bytes.IndexByte(s, ':')
	if c < 0 {
		return q, nil
	}
	if bytes.IndexByte(s[c+1:], ':') >= 0 {
		return qname{}, p.syntaxError(end, "expected "+what)
	}
	if c > 0 && c < len(s)-1 {
		q.colon = start + c
	}
	return q, nil
}

// prefix returns the prefix of a name that has one.
func (p *parser) prefix(q qname) []byte { return p.src[q.start:q.colon] }

func (p *parser) local(q qname) []byte {
	if q.colon < 0 {
		return p.src[q.start:q.end]
	}
	return p.src[q.colon+1 : q.end]
}

// isDecl reports whether q names an xmlns or xmlns:p attribute.
func (p *parser) isDecl(q qname) bool {
	if q.colon < 0 {
		return string(p.src[q.start:q.end]) == "xmlns"
	}
	return string(p.prefix(q)) == "xmlns"
}

// bind puts the declaration q="uri" in scope: xmlns binds the default
// namespace and xmlns:p the prefix p.
func (p *parser) bind(q qname, uri string) {
	b := nsBinding{uri: uri, def: q.colon < 0}
	if b.def {
		b.prev, p.def = p.def, len(p.binds)
	} else {
		if p.prefixes == nil {
			p.prefixes = make(map[string]int)
		}
		b.prefix = internBytes(p.local(q))
		prev, ok := p.prefixes[b.prefix]
		if !ok {
			prev = -1
		}
		b.prev, p.prefixes[b.prefix] = prev, len(p.binds)
	}
	p.binds = append(p.binds, b)
}

// lookup returns the URI bound to prefix.
func (p *parser) lookup(prefix []byte) (string, bool) {
	if i, ok := p.prefixes[string(prefix)]; ok {
		return p.binds[i].uri, true
	}
	return "", false
}

// elementName resolves an element name: an unprefixed name takes the
// default namespace, except one spelled "xmlns"; the "xml" prefix is the
// XML namespace, "xmlns" stays as it is, and an unbound prefix stands for
// itself.
func (p *parser) elementName(q qname) Name {
	local := internBytes(p.local(q))
	if q.colon < 0 {
		if local == "xmlns" {
			return Name{Local: local}
		}
		var uri string
		if p.def >= 0 {
			uri = p.binds[p.def].uri
		}
		return Name{Space: uri, Local: local}
	}
	return Name{Space: p.prefixURI(p.prefix(q)), Local: local}
}

// attrName resolves an attribute name like elementName, except that an
// unprefixed attribute is in no namespace.
func (p *parser) attrName(q qname) Name {
	local := internBytes(p.local(q))
	if q.colon < 0 {
		return Name{Local: local}
	}
	return Name{Space: p.prefixURI(p.prefix(q)), Local: local}
}

func (p *parser) prefixURI(prefix []byte) string {
	switch string(prefix) {
	case "xmlns":
		return "xmlns"
	case "xml":
		return xmlURL
	}
	if uri, ok := p.lookup(prefix); ok {
		return uri
	}
	return internBytes(prefix)
}

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' ||
		'a' <= c && c <= 'z' ||
		'0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

// isNameStart reports whether an ASCII name byte may start a name.
func isNameStart(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':'
}
