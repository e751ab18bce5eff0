package rdf

// MustParseTurtle parses static Turtle data, panicking on error.
func MustParseTurtle(s string) []Triple {
	ts, err := ParseTurtleString(s)
	if err != nil {
		panic(err)
	}
	return ts
}
