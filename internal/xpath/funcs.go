package xpath

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/xmltree"
)

// function describes one core-library function: arity bounds and
// implementation. maxArgs of -1 means variadic.
type function struct {
	minArgs int
	maxArgs int
	impl    func(c *evalCtx, args []object) (object, error)
}

// coreFunctions is the XPath 1.0 core function library (minus the id() and
// lang() functions, which need DTD/xml:lang infrastructure the framework
// does not use), plus XQuery's doc() over Context.Docs.
var coreFunctions map[string]function

func init() {
	coreFunctions = map[string]function{
		// Node-set functions.
		"position": {0, 0, func(c *evalCtx, _ []object) (object, error) {
			return float64(c.pos), nil
		}},
		"last": {0, 0, func(c *evalCtx, _ []object) (object, error) {
			return float64(c.size), nil
		}},
		"count": {1, 1, func(_ *evalCtx, args []object) (object, error) {
			ns, ok := args[0].(NodeSet)
			if !ok {
				return nil, fmt.Errorf("xpath: count() needs a node-set, got %s", typeName(args[0]))
			}
			return float64(len(ns)), nil
		}},
		"name": {0, 1, func(c *evalCtx, args []object) (object, error) {
			n, err := argNode(c, args)
			if err != nil || n == nil {
				return "", err
			}
			// Without prefix bookkeeping the expanded name is the most
			// useful rendering; unprefixed names come out unchanged.
			if n.Name.Space == "" {
				return n.Name.Local, nil
			}
			for p, uri := range c.env.Namespaces {
				if uri == n.Name.Space {
					return p + ":" + n.Name.Local, nil
				}
			}
			return n.Name.Local, nil
		}},
		"local-name": {0, 1, func(c *evalCtx, args []object) (object, error) {
			n, err := argNode(c, args)
			if err != nil || n == nil {
				return "", err
			}
			return n.Name.Local, nil
		}},
		"namespace-uri": {0, 1, func(c *evalCtx, args []object) (object, error) {
			n, err := argNode(c, args)
			if err != nil || n == nil {
				return "", err
			}
			return n.Name.Space, nil
		}},
		// String functions.
		"string": {0, 1, func(c *evalCtx, args []object) (object, error) {
			if len(args) == 0 {
				return c.node.TextContent(), nil
			}
			return toString(args[0]), nil
		}},
		"concat": {2, -1, func(_ *evalCtx, args []object) (object, error) {
			var b strings.Builder
			for _, a := range args {
				b.WriteString(toString(a))
			}
			return b.String(), nil
		}},
		"starts-with": {2, 2, func(_ *evalCtx, args []object) (object, error) {
			return strings.HasPrefix(toString(args[0]), toString(args[1])), nil
		}},
		"ends-with": {2, 2, func(_ *evalCtx, args []object) (object, error) {
			// XPath 2.0 convenience widely assumed by rule authors.
			return strings.HasSuffix(toString(args[0]), toString(args[1])), nil
		}},
		"contains": {2, 2, func(_ *evalCtx, args []object) (object, error) {
			return strings.Contains(toString(args[0]), toString(args[1])), nil
		}},
		"substring-before": {2, 2, func(_ *evalCtx, args []object) (object, error) {
			s, sep := toString(args[0]), toString(args[1])
			if i := strings.Index(s, sep); i >= 0 {
				return s[:i], nil
			}
			return "", nil
		}},
		"substring-after": {2, 2, func(_ *evalCtx, args []object) (object, error) {
			s, sep := toString(args[0]), toString(args[1])
			if i := strings.Index(s, sep); i >= 0 {
				return s[i+len(sep):], nil
			}
			return "", nil
		}},
		"substring": {2, 3, func(_ *evalCtx, args []object) (object, error) {
			s := []rune(toString(args[0]))
			start := math.Round(toNumber(args[1]))
			length := math.Inf(1)
			if len(args) == 3 {
				length = math.Round(toNumber(args[2]))
			}
			if math.IsNaN(start) || math.IsNaN(length) {
				return "", nil
			}
			var out []rune
			for i, r := range s {
				pos := float64(i + 1)
				if pos >= start && pos < start+length {
					out = append(out, r)
				}
			}
			return string(out), nil
		}},
		"string-length": {0, 1, func(c *evalCtx, args []object) (object, error) {
			if len(args) == 0 {
				return float64(len([]rune(c.node.TextContent()))), nil
			}
			return float64(len([]rune(toString(args[0])))), nil
		}},
		"normalize-space": {0, 1, func(c *evalCtx, args []object) (object, error) {
			s := ""
			if len(args) == 0 {
				s = c.node.TextContent()
			} else {
				s = toString(args[0])
			}
			return strings.Join(strings.Fields(s), " "), nil
		}},
		"translate": {3, 3, func(_ *evalCtx, args []object) (object, error) {
			s := toString(args[0])
			from := []rune(toString(args[1]))
			to := []rune(toString(args[2]))
			m := map[rune]rune{}
			drop := map[rune]bool{}
			for i, r := range from {
				if _, dup := m[r]; dup || drop[r] {
					continue
				}
				if i < len(to) {
					m[r] = to[i]
				} else {
					drop[r] = true
				}
			}
			var b strings.Builder
			for _, r := range s {
				if drop[r] {
					continue
				}
				if t, ok := m[r]; ok {
					b.WriteRune(t)
				} else {
					b.WriteRune(r)
				}
			}
			return b.String(), nil
		}},
		// Boolean functions.
		"boolean": {1, 1, func(_ *evalCtx, args []object) (object, error) {
			return toBool(args[0]), nil
		}},
		"not": {1, 1, func(_ *evalCtx, args []object) (object, error) {
			return !toBool(args[0]), nil
		}},
		"true": {0, 0, func(_ *evalCtx, _ []object) (object, error) {
			return true, nil
		}},
		"false": {0, 0, func(_ *evalCtx, _ []object) (object, error) {
			return false, nil
		}},
		// Document functions.
		"doc": {1, 1, func(c *evalCtx, args []object) (object, error) {
			uri := toString(args[0])
			// The messages are those of the XQuery-lite layer, whose
			// documents doc() addresses.
			if c.env.Docs == nil {
				return nil, fmt.Errorf("xq: doc(%q): no document resolver configured", uri)
			}
			doc, err := c.env.Docs(uri)
			if err != nil {
				return nil, fmt.Errorf("xq: doc(%q): %w", uri, err)
			}
			return NodeSet{doc}, nil
		}},
		// Number functions.
		"number": {0, 1, func(c *evalCtx, args []object) (object, error) {
			if len(args) == 0 {
				return stringToNumber(c.node.TextContent()), nil
			}
			return toNumber(args[0]), nil
		}},
		"sum": {1, 1, func(_ *evalCtx, args []object) (object, error) {
			ns, ok := args[0].(NodeSet)
			if !ok {
				return nil, fmt.Errorf("xpath: sum() needs a node-set, got %s", typeName(args[0]))
			}
			total := 0.0
			for _, n := range ns {
				total += stringToNumber(n.TextContent())
			}
			return total, nil
		}},
		"floor": {1, 1, func(_ *evalCtx, args []object) (object, error) {
			return math.Floor(toNumber(args[0])), nil
		}},
		"ceiling": {1, 1, func(_ *evalCtx, args []object) (object, error) {
			return math.Ceil(toNumber(args[0])), nil
		}},
		"round": {1, 1, func(_ *evalCtx, args []object) (object, error) {
			f := toNumber(args[0])
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return f, nil
			}
			return math.Floor(f + 0.5), nil
		}},
	}
}

// argNode resolves the optional node-set argument of name()/local-name()/
// namespace-uri(): the first node of the argument, or the context node.
func argNode(c *evalCtx, args []object) (*xmltree.Node, error) {
	if len(args) == 0 {
		return c.node, nil
	}
	ns, ok := args[0].(NodeSet)
	if !ok {
		return nil, fmt.Errorf("xpath: expected a node-set argument, got %s", typeName(args[0]))
	}
	if len(ns) == 0 {
		return nil, nil
	}
	return ns[0], nil
}
