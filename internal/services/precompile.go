package services

import (
	"fmt"
	"strings"

	"repro/internal/datalog"
	"repro/internal/ruleml"
	"repro/internal/snoop"
	"repro/internal/winlang"
	"repro/internal/xpath"
	"repro/internal/xq"
)

// Registration-time precompilation: the engine compiles every component
// expression it can when a rule is registered, so (a) the compile cache is
// warm before the first event fires and (b) a rule whose expression does
// not even compile is rejected at POST /engine/rules with a 400 naming the
// component, instead of failing as a service 500 on every matching event.
//
// Only expressions the engine can interpret are checked: components that
// pin a Service URI are opaque endpoints (Fig. 9/10) whose text may be in
// any language and is often completed by per-tuple variable substitution,
// and unknown language namespaces belong to services the engine cannot
// introspect. Both are skipped — registration stays permissive exactly
// where the paper's framework is.

// PrecompileRule compiles every checkable component expression of the rule
// into the shared compile cache, returning the first failure wrapped with
// the offending component's ID (e.g. "query[2]").
func PrecompileRule(r *ruleml.Rule) error {
	for _, c := range r.Components() {
		if err := PrecompileComponent(c); err != nil {
			return fmt.Errorf("component %s: %w", c.ID, err)
		}
	}
	return nil
}

// PrecompileComponent compiles one component's expression if its language
// is one the engine interprets; components with pinned services or unknown
// languages are skipped.
func PrecompileComponent(c ruleml.Component) error {
	if c.Service != "" {
		return nil // opaque endpoint: text may not even be an expression
	}
	text := componentText(c)
	switch c.Kind {
	case ruleml.QueryComponent:
		switch c.Language {
		case XQueryNS:
			if text == "" {
				return fmt.Errorf("empty %s expression", c.Kind)
			}
			_, err := xq.CompileCached(text)
			return err
		case DatalogNS:
			if text == "" {
				return fmt.Errorf("empty %s expression", c.Kind)
			}
			_, err := datalog.ParseQueryCached(text)
			return err
		}
	case ruleml.TestComponent:
		if c.Language == "" || c.Language == TestNS {
			if text == "" {
				return fmt.Errorf("empty %s expression", c.Kind)
			}
			_, err := xpath.CompileCached(text)
			return err
		}
	case ruleml.EventComponent:
		if c.Expression == nil {
			break
		}
		switch c.Language {
		case winlang.NS:
			_, err := winlang.ParseCached(c.Expression)
			return err
		case snoop.NS:
			_, _, err := compileSnoop(c.Expression)
			return err
		}
	}
	// Unknown language or a kind (actions, atomic events) whose text is
	// completed per tuple: leave it to the owning service.
	return nil
}

// componentText extracts the expression source the services will compile:
// the opaque text, or the text content of the expression element.
func componentText(c ruleml.Component) string {
	if c.Opaque {
		return strings.TrimSpace(c.Text)
	}
	if c.Expression == nil {
		return ""
	}
	if s, ok := unwrapOpaque(c.Expression); ok {
		return s
	}
	return strings.TrimSpace(c.Expression.TextContent())
}
