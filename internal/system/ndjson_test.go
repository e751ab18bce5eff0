package system

import (
	"encoding/json"
	"strings"
	"testing"
)

// ndjsonSeeds cover the fast path and every reason to leave it.
var ndjsonSeeds = []string{
	`"<a/>"`,
	`"<t:booking xmlns:t=\"http://t/\" person=\"J&D\"/>"`,
	`"esc \" \\ \/ \b \f \n \r \t \u00e9 \u0000 \u2028 \uABCD \u003c"`,
	`"é ü 日本"`,
	`""`,
	`"\ud83d\ude00"`, // a surrogate pair
	`"\ud83d"`,       // a lone surrogate
	`"\udc00x"`,
	`"tab	inside"`, // a raw control byte
	"\"bad utf8 \xff\"",
	`"bad escape \x"`,
	`"short \u12"`,
	`"\u12G4"`,
	`"ends in \"`,
	`"a" "b"`,
	`"a"x`,
	`"a`,
	`a"`,
	`"`,
	`42`,
	`null`,
	`["<a/>"]`,
	`{"a":1}`,
}

// FuzzDecodeJSONString checks the NDJSON line decoder against
// json.Unmarshal into a string: the same string, and an error exactly
// when json.Unmarshal errs, with the same message.
func FuzzDecodeJSONString(f *testing.F) {
	for _, s := range ndjsonSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, err := decodeJSONString(line)
		var want string
		werr := json.Unmarshal(line, &want)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("decode(%q): error %v, json.Unmarshal: %v", line, err, werr)
		}
		if err == nil && got != want {
			t.Fatalf("decode(%q) = %q, json.Unmarshal = %q", line, got, want)
		}
	})
}

// The common lines never reach encoding/json.
func TestDecodeJSONStringFastPath(t *testing.T) {
	for _, s := range ndjsonSeeds[:5] {
		if _, ok := decodeSimpleJSONString([]byte(s)); !ok {
			t.Errorf("%q left the fast path", s)
		}
	}
}

// Each NDJSON event is returned with the text it was received in; blank
// lines are skipped.
func TestParseNDJSONTexts(t *testing.T) {
	body := `"<a x=\"1\"/>"` + "\n\n" + `  "<b><c/></b>"  ` + "\r\n"
	docs, texts, err := parseNDJSON(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`<a x="1"/>`, `<b><c/></b>`}
	if len(docs) != 2 || strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Fatalf("texts = %q (%d docs), want %q", texts, len(docs), want)
	}
}
