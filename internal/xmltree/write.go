package xmltree

import (
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
)

var writers = sync.Pool{New: func() any { return new(writer) }}

// writer serializes one tree into buf. The namespace declarations in
// scope live on one stack, innermost last; each records the depth of the
// element that made it, so the entries of one element form a frame. Two
// maps index the stack so that a lookup costs the same however many
// declarations are in scope; each entry keeps what it shadowed there, to
// be restored when its element closes.
type writer struct {
	buf    []byte
	binds  []wbinding
	def    string         // the default namespace in scope
	prefix map[string]int // prefix -> innermost binding of it
	uri    map[string]int // URI -> innermost frame's last binding to it
	decls  []wbinding     // declarations the current element synthesizes
	attrs  []string       // the current element's attribute prefixes
	count  int            // synthesized nsN prefixes so far
}

// wbinding binds prefix, or the default namespace when def is set, to
// uri. For a prefix binding, prevPrefix and prevURI are the entries of
// the maps it replaced (-1 for none), and nextURI is the binding an outer
// frame made last to the same URI, the next candidate lookupPrefix tries;
// for a default one, prevDef is the default namespace it replaced.
type wbinding struct {
	prefix, uri string
	def         bool
	depth       int
	prevDef     string
	prevPrefix  int
	prevURI     int
	nextURI     int
}

// Write serializes the tree rooted at n to w as XML. Namespace prefixes are
// taken from xmlns declarations present in the attribute lists; names in
// namespaces with no in-scope declaration get synthesized ns1, ns2, …
// declarations on the element that first needs them.
func (n *Node) Write(w io.Writer) error {
	wr := writers.Get().(*writer)
	defer wr.release()
	wr.node(n, 0)
	_, err := w.Write(wr.buf)
	return err
}

// String serializes the tree rooted at n to a string. Errors cannot occur
// when writing to an in-memory buffer, so none are returned.
func (n *Node) String() string {
	wr := writers.Get().(*writer)
	defer wr.release()
	wr.node(n, 0)
	return string(wr.buf)
}

func (w *writer) release() {
	if cap(w.binds) > maxPooledSlots {
		w.prefix, w.uri = nil, nil
	}
	w.binds = reuse(w.binds)
	w.def = ""
	clear(w.prefix)
	clear(w.uri)
	w.decls = reuse(w.decls)
	w.attrs = reuse(w.attrs)
	w.count = 0
	if cap(w.buf) > maxPooledBytes {
		w.buf = nil
	}
	w.buf = w.buf[:0]
	writers.Put(w)
}

// node writes n; depth is the nesting depth an element at n's level has.
func (w *writer) node(n *Node, depth int) {
	switch n.Kind {
	case DocumentNode:
		for _, c := range n.Children {
			w.node(c, depth)
		}
	case TextNode:
		w.buf = appendEscaped(w.buf, n.Text, false)
	case CommentNode:
		w.buf = append(w.buf, "<!--"...)
		w.buf = append(w.buf, n.Text...)
		w.buf = append(w.buf, "-->"...)
	case ProcInstNode:
		w.buf = append(w.buf, "<?"...)
		w.buf = append(w.buf, n.Name.Local...)
		if n.Text != "" {
			w.buf = append(w.buf, ' ')
			w.buf = append(w.buf, n.Text...)
		}
		w.buf = append(w.buf, "?>"...)
	case ElementNode:
		w.element(n, depth)
	}
}

func (w *writer) element(n *Node, depth int) {
	mark := len(w.binds)
	for _, a := range n.Attrs {
		if a.Name.Space == "xmlns" {
			w.bind(wbinding{prefix: a.Name.Local, uri: a.Value, depth: depth})
		} else if a.Name.Space == "" && a.Name.Local == "xmlns" {
			w.bind(wbinding{uri: a.Value, def: true, depth: depth})
		}
	}
	w.decls = w.decls[:0]
	// An element in no namespace under a default namespace needs an override.
	if n.Name.Space == "" && w.def != "" {
		w.bind(wbinding{def: true, depth: depth})
		w.decls = append(w.decls, w.binds[len(w.binds)-1])
	}
	ePrefix := w.need(n.Name.Space, false, depth)
	w.attrs = w.attrs[:0]
	for _, a := range n.Attrs {
		p := ""
		if a.Name.Space != "" && a.Name.Space != "xmlns" {
			p = w.need(a.Name.Space, true, depth)
		}
		w.attrs = append(w.attrs, p)
	}

	w.buf = append(w.buf, '<')
	w.qname(ePrefix, n.Name.Local)
	// The synthesized declarations come first, in the byte order of their
	// rendered attributes.
	decls := w.decls
	for i := 1; i < len(decls); i++ {
		for j := i; j > 0 && declBefore(decls[j].prefix, decls[j-1].prefix); j-- {
			decls[j], decls[j-1] = decls[j-1], decls[j]
		}
	}
	for _, d := range decls {
		w.buf = append(w.buf, " xmlns"...)
		if !d.def {
			w.buf = append(w.buf, ':')
			w.buf = append(w.buf, d.prefix...)
		}
		w.buf = append(w.buf, `="`...)
		w.buf = appendEscaped(w.buf, d.uri, true)
		w.buf = append(w.buf, '"')
	}
	for i, a := range n.Attrs {
		w.buf = append(w.buf, ' ')
		switch {
		case a.Name.Space == "xmlns":
			w.qname("xmlns", a.Name.Local)
		case a.Name.Space == "":
			w.buf = append(w.buf, a.Name.Local...)
		default:
			w.buf = append(w.buf, w.attrs[i]...)
			w.buf = append(w.buf, ':')
			w.buf = append(w.buf, a.Name.Local...)
		}
		w.buf = append(w.buf, `="`...)
		w.buf = appendEscaped(w.buf, a.Value, true)
		w.buf = append(w.buf, '"')
	}

	if len(n.Children) == 0 {
		w.buf = append(w.buf, "/>"...)
	} else {
		w.buf = append(w.buf, '>')
		for _, c := range n.Children {
			w.node(c, depth+1)
		}
		w.buf = append(w.buf, "</"...)
		w.qname(ePrefix, n.Name.Local)
		w.buf = append(w.buf, '>')
	}
	w.unbind(mark)
}

// bind pushes b and makes it the innermost binding of its prefix or of
// the default namespace. A prefix binding also becomes the binding its
// frame made last to b.uri, replacing an earlier one of the same frame.
func (w *writer) bind(b wbinding) {
	i := len(w.binds)
	if b.def {
		b.prevDef, w.def = w.def, b.uri
		w.binds = append(w.binds, b)
		return
	}
	if w.prefix == nil {
		w.prefix, w.uri = make(map[string]int), make(map[string]int)
	}
	b.prevPrefix, b.prevURI = index(w.prefix, b.prefix), index(w.uri, b.uri)
	b.nextURI = b.prevURI
	if b.prevURI >= 0 && w.binds[b.prevURI].depth == b.depth {
		b.nextURI = w.binds[b.prevURI].nextURI
	}
	w.prefix[b.prefix], w.uri[b.uri] = i, i
	w.binds = append(w.binds, b)
}

// unbind pops the bindings above mark, restoring what each shadowed.
func (w *writer) unbind(mark int) {
	for i := len(w.binds) - 1; i >= mark; i-- {
		b := w.binds[i]
		if b.def {
			w.def = b.prevDef
			continue
		}
		restore(w.prefix, b.prefix, b.prevPrefix)
		restore(w.uri, b.uri, b.prevURI)
	}
	clear(w.binds[mark:])
	w.binds = w.binds[:mark]
}

// index returns m[k], or -1 when k is absent.
func index(m map[string]int, k string) int {
	if i, ok := m[k]; ok {
		return i
	}
	return -1
}

// restore sets m[k] back to i, deleting k when i is -1.
func restore(m map[string]int, k string, i int) {
	if i < 0 {
		delete(m, k)
	} else {
		m[k] = i
	}
}

func (w *writer) qname(prefix, local string) {
	if prefix != "" {
		w.buf = append(w.buf, prefix...)
		w.buf = append(w.buf, ':')
	}
	w.buf = append(w.buf, local...)
}

// need returns the prefix to write a name in namespace uri with, ""
// meaning none, and synthesizes a declaration when no usable one is in
// scope. Attributes never take the default namespace.
func (w *writer) need(uri string, forAttr bool, depth int) string {
	if uri == "" {
		return ""
	}
	if !forAttr && w.def == uri {
		return ""
	}
	if p, ok := w.lookupPrefix(uri); ok && p != "" {
		return p
	}
	for {
		w.count++
		p := nsPrefix(w.count)
		if _, taken := w.prefix[p]; !taken {
			w.bind(wbinding{prefix: p, uri: uri, depth: depth})
			w.decls = append(w.decls, w.binds[len(w.binds)-1])
			return p
		}
	}
}

// lookupPrefix finds a prefix bound to uri. Within one element's frame
// only its last declaration of uri counts, and a prefix a nearer frame
// rebound to another URI does not.
func (w *writer) lookupPrefix(uri string) (string, bool) {
	for i := index(w.uri, uri); i >= 0; i = w.binds[i].nextURI {
		p := w.binds[i].prefix
		if w.binds[w.prefix[p]].uri == uri {
			return p, true
		}
	}
	return "", false
}

// nsPrefixes holds the synthesized prefixes most trees need.
var nsPrefixes = func() (s [16]string) {
	for i := range s {
		s[i] = "ns" + strconv.Itoa(i)
	}
	return s
}()

func nsPrefix(n int) string {
	if n < len(nsPrefixes) {
		return nsPrefixes[n]
	}
	return "ns" + strconv.Itoa(n)
}

// declBefore reports whether the declaration of prefix p sorts before that
// of q when both are rendered as attributes: xmlns:p="…" compares as p
// followed by '=', and xmlns="…" (prefix "") after every prefixed one.
func declBefore(p, q string) bool {
	if p == "" || q == "" {
		return q == "" && p != ""
	}
	n := min(len(p), len(q))
	if p[:n] != q[:n] {
		return p[:n] < q[:n]
	}
	if len(p) < len(q) {
		return '=' < q[n]
	}
	return len(p) > len(q) && p[n] < '='
}

// appendEscaped appends s with the markup-significant characters replaced
// by entity references and invalid UTF-8 by U+FFFD. In text, tabs and
// newlines pass through literally, unlike encoding/xml's EscapeText, and a
// carriage return is escaped numerically because a parser turns a literal
// one into a newline. In a double-quoted attribute value the quote is
// escaped too, and so are tab, newline and carriage return, so they
// survive attribute-value normalization on reparse.
func appendEscaped(b []byte, s string, attr bool) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		var esc string
		if c < utf8.RuneSelf {
			switch {
			case c == '&':
				esc = "&amp;"
			case c == '<':
				esc = "&lt;"
			case c == '>':
				esc = "&gt;"
			case c == '\r':
				esc = "&#xD;"
			case attr && c == '"':
				esc = "&quot;"
			case attr && c == '\t':
				esc = "&#x9;"
			case attr && c == '\n':
				esc = "&#xA;"
			default:
				i++
				continue
			}
			b = append(b, s[last:i]...)
			b = append(b, esc...)
			i++
			last = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[last:i]...)
			b = append(b, "\uFFFD"...)
			last = i + 1
		}
		i += size
	}
	return append(b, s[last:]...)
}
