package travel

import "repro/internal/xmltree"

// Cancellation builds a travel:cancellation event element.
func Cancellation(person string) *xmltree.Node {
	e := xmltree.NewElement(NS, "cancellation")
	e.SetAttr("xmlns", "travel", NS)
	e.SetAttr("", "person", person)
	return e
}
