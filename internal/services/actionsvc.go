package services

import (
	"fmt"
	"sync"

	"repro/internal/bindings"
	"repro/internal/events"
	"repro/internal/grh"
	"repro/internal/protocol"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// ActionExecutor is the domain action service of Section 4.5: "for each
// tuple of variable bindings, the action component is executed". It
// supports three shapes of action expression:
//
//   - a bare domain element (e.g. <travel:inform person="$Person"
//     car="$Avail"/>): instantiated per tuple and handed to the message
//     sink — "explicit message sending";
//   - <act:raise> wrapping a domain element: the instantiated element is
//     published as a new event on the stream, letting rules trigger rules;
//   - <store:insert doc="uri"> / <store:delete doc="uri" select="…">:
//     "commands on the database level" against the document store.
type ActionExecutor struct {
	store  *DocStore
	stream *events.Stream
	sink   func(*xmltree.Node, bindings.Tuple)

	mu       sync.Mutex
	executed int
}

// NewActionExecutor builds the executor. Any of store, stream and sink may
// be nil; using an action shape whose target is missing is an error.
func NewActionExecutor(store *DocStore, stream *events.Stream, sink func(*xmltree.Node, bindings.Tuple)) *ActionExecutor {
	return &ActionExecutor{store: store, stream: stream, sink: sink}
}

// Executed returns the total number of per-tuple action executions.
func (a *ActionExecutor) Executed() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.executed
}

// Handle implements grh.Service for action components.
func (a *ActionExecutor) Handle(req *protocol.Request) (*protocol.Answer, error) {
	if req.Kind != protocol.Action {
		return nil, fmt.Errorf("actiond: unsupported request kind %q", req.Kind)
	}
	if req.Expression == nil {
		return nil, fmt.Errorf("actiond: action component without expression")
	}
	for _, t := range req.Bindings.Tuples() {
		if err := a.execute(req.Expression, req.Tenant, t); err != nil {
			return nil, fmt.Errorf("actiond: %w", err)
		}
		a.mu.Lock()
		a.executed++
		a.mu.Unlock()
	}
	return protocol.NewAnswer(req.RuleID, req.Component, req.Bindings), nil
}

func (a *ActionExecutor) execute(expr *xmltree.Node, tenant string, t bindings.Tuple) error {
	switch {
	case expr.Name.Space == ActionNS && expr.Name.Local == "raise":
		kids := expr.ChildElements()
		if len(kids) != 1 {
			return fmt.Errorf("act:raise must wrap exactly one event element")
		}
		if a.stream == nil {
			return fmt.Errorf("act:raise: no event stream attached")
		}
		// Detached: raising is ordered but never waits for delivery. The
		// instance of a detached event runs inside the stream dispatch,
		// where Publish would wait for itself; on a detector partition
		// worker it could wait for a dispatcher that is blocked on this
		// worker's full queue.
		// The raised event stays in the raising rule's tenant, so a rule
		// can trigger rules of its own tenant but never another's.
		ev := events.New(Instantiate(kids[0], t))
		ev.Tenant = tenant
		a.stream.PublishDetached(ev)
		return nil
	case expr.Name.Space == ActionNS && expr.Name.Local == "send":
		kids := expr.ChildElements()
		if len(kids) != 1 {
			return fmt.Errorf("act:send must wrap exactly one message element")
		}
		return a.send(kids[0], t)
	case expr.Name.Space == StoreNS && expr.Name.Local == "insert":
		doc := expr.AttrValue("", "doc")
		kids := expr.ChildElements()
		if doc == "" || len(kids) != 1 {
			return fmt.Errorf("store:insert needs a doc attribute and exactly one element")
		}
		if a.store == nil {
			return fmt.Errorf("store:insert: no document store attached")
		}
		inst := Instantiate(kids[0], t)
		return a.store.Update(doc, func(d *xmltree.Node) error {
			root := d.Root()
			if root == nil {
				return fmt.Errorf("document %q has no root element", doc)
			}
			root.Append(inst)
			return nil
		})
	case expr.Name.Space == StoreNS && expr.Name.Local == "delete":
		doc := expr.AttrValue("", "doc")
		sel := expr.AttrValue("", "select")
		if doc == "" || sel == "" {
			return fmt.Errorf("store:delete needs doc and select attributes")
		}
		if a.store == nil {
			return fmt.Errorf("store:delete: no document store attached")
		}
		// Substitution yields per-tuple source text, compiled per tuple.
		selector, err := xpath.Compile(grh.SubstituteVars(sel, t))
		if err != nil {
			return fmt.Errorf("store:delete select: %w", err)
		}
		return a.store.Update(doc, func(d *xmltree.Node) error {
			ns, err := selector.EvalNodes(&xpath.Context{Node: d})
			if err != nil {
				return err
			}
			for _, n := range ns {
				removeChild(n)
			}
			return nil
		})
	default:
		// Bare domain action: message sending.
		return a.send(expr, t)
	}
}

func (a *ActionExecutor) send(msg *xmltree.Node, t bindings.Tuple) error {
	if a.sink == nil {
		return fmt.Errorf("send: no message sink attached")
	}
	a.sink(Instantiate(msg, t), t)
	return nil
}

func removeChild(n *xmltree.Node) {
	p := n.Parent
	if p == nil {
		return
	}
	for i, c := range p.Children {
		if c == n {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			n.Parent = nil
			return
		}
	}
}

// Instantiate deep-copies an action or event template, substituting $Var
// references in attribute values and text content with the tuple's values.
// An attribute or text that is exactly "$Var" bound to an XML value splices
// the fragment's string-value into attributes and the fragment itself into
// element content.
func Instantiate(template *xmltree.Node, t bindings.Tuple) *xmltree.Node {
	out := &xmltree.Node{Kind: template.Kind, Name: template.Name, Text: template.Text}
	for _, a := range template.Attrs {
		v := a.Value
		if !a.IsNamespaceDecl() {
			v = grh.SubstituteVars(v, t)
		}
		out.Attrs = append(out.Attrs, xmltree.Attr{Name: a.Name, Value: v})
	}
	for _, c := range template.Children {
		switch c.Kind {
		case xmltree.TextNode:
			txt := c.Text
			if name, ok := exactVar(txt); ok {
				if v, bound := t[name]; bound && v.Kind() == bindings.XML {
					out.Append(v.Node().Clone())
					continue
				}
			}
			out.Append(xmltree.NewText(grh.SubstituteVars(txt, t)))
		case xmltree.ElementNode:
			out.Append(Instantiate(c, t))
		default:
			out.Append(c.Clone())
		}
	}
	return out
}

func exactVar(s string) (string, bool) {
	s = trimSpace(s)
	if len(s) > 1 && s[0] == '$' {
		for i := 1; i < len(s); i++ {
			c := s[i]
			if !(c == '_' || c == '-' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) {
				return "", false
			}
		}
		return s[1:], true
	}
	return "", false
}

func trimSpace(s string) string {
	start, end := 0, len(s)
	for start < end && (s[start] == ' ' || s[start] == '\t' || s[start] == '\n' || s[start] == '\r') {
		start++
	}
	for end > start && (s[end-1] == ' ' || s[end-1] == '\t' || s[end-1] == '\n' || s[end-1] == '\r') {
		end--
	}
	return s[start:end]
}

var _ grh.Service = (*ActionExecutor)(nil)
