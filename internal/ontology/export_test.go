package ontology

import "repro/internal/rdf"

// ServiceEndpoint resolves the endpoint recorded for a language's service.
func ServiceEndpoint(g *rdf.Graph, language string) (string, bool) {
	lang := rdf.NewIRI(language)
	for _, t := range g.Match(&lang, &PropImplementedBy, nil) {
		svc := t.O
		for _, e := range g.Match(&svc, &PropEndpoint, nil) {
			return e.O.Value, true
		}
	}
	return "", false
}
