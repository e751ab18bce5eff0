package snoop

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/events"
	"repro/internal/xmltree"
)

// NS is the namespace URI of the SNOOP event-language markup; a rule's
// event component using this namespace is dispatched to the SNOOP detection
// service.
const NS = "http://www.semwebtech.org/languages/2006/snoop"

// ParseXML builds a composite event expression from its XML markup:
//
//	<snoop:seq xmlns:snoop="…/snoop">
//	  <snoop:event><travel:booking person="$P"/></snoop:event>
//	  <snoop:event><travel:cancellation person="$P"/></snoop:event>
//	</snoop:seq>
//
// Operators: event (atomic pattern), or, and, seq (n-ary, folded left),
// any (attribute m), not (children: begin, guarded, end), aperiodic
// (children: begin, mid, end), periodic (attribute interval, children:
// begin, end).
func ParseXML(n *xmltree.Node) (Expr, error) {
	n = n.Root()
	if n == nil {
		return nil, fmt.Errorf("snoop: empty event expression")
	}
	if n.Name.Space != NS {
		return nil, fmt.Errorf("snoop: expected an element in namespace %s, got %s", NS, n.Name)
	}
	switch n.Name.Local {
	case "event":
		kids := n.ChildElements()
		if len(kids) != 1 {
			return nil, fmt.Errorf("snoop: <event> must contain exactly one pattern element, has %d", len(kids))
		}
		p, err := events.NewPattern(kids[0])
		if err != nil {
			return nil, err
		}
		return &Atomic{Pattern: p}, nil
	case "or", "and", "seq":
		kids, err := childExprs(n, 2, -1)
		if err != nil {
			return nil, err
		}
		return foldBinary(n.Name.Local, kids), nil
	case "any":
		mStr := n.AttrValue("", "m")
		m, err := strconv.Atoi(mStr)
		if err != nil {
			return nil, fmt.Errorf("snoop: <any> needs an integer m attribute, got %.64q", mStr)
		}
		kids, err := childExprs(n, 1, -1)
		if err != nil {
			return nil, err
		}
		return &Any{M: m, Children: kids}, nil
	case "not":
		kids, err := childExprs(n, 3, 3)
		if err != nil {
			return nil, err
		}
		return &Not{Begin: kids[0], Guarded: kids[1], End: kids[2]}, nil
	case "aperiodic":
		kids, err := childExprs(n, 3, 3)
		if err != nil {
			return nil, err
		}
		return &Aperiodic{Begin: kids[0], Mid: kids[1], End: kids[2]}, nil
	case "aperiodic-star":
		kids, err := childExprs(n, 3, 3)
		if err != nil {
			return nil, err
		}
		return &AperiodicStar{Begin: kids[0], Mid: kids[1], End: kids[2]}, nil
	case "periodic":
		iv, err := time.ParseDuration(n.AttrValue("", "interval"))
		if err != nil {
			return nil, fmt.Errorf("snoop: <periodic> needs a Go duration interval attribute: %w", err)
		}
		kids, err := childExprs(n, 2, 2)
		if err != nil {
			return nil, err
		}
		return &Periodic{Begin: kids[0], Interval: iv, End: kids[1]}, nil
	default:
		return nil, fmt.Errorf("snoop: unknown operator <%s>", n.Name.Local)
	}
}

func childExprs(n *xmltree.Node, min, max int) ([]Expr, error) {
	var out []Expr
	for _, c := range n.ChildElements() {
		e, err := ParseXML(c)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	if len(out) < min || (max >= 0 && len(out) > max) {
		return nil, fmt.Errorf("snoop: <%s> has %d operands", n.Name.Local, len(out))
	}
	return out, nil
}

func foldBinary(op string, kids []Expr) Expr {
	acc := kids[0]
	for _, k := range kids[1:] {
		switch op {
		case "or":
			acc = &Or{acc, k}
		case "and":
			acc = &And{acc, k}
		default:
			acc = &Seq{acc, k}
		}
	}
	return acc
}
