package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestLoggerJSONCarriesFields(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, "json", slog.LevelInfo)
	lg.With(FieldTraceID, "rule#7", FieldRule, "rule").
		Info("step evaluated", FieldComponent, "query[1]", "tuples", 3)

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.String())
	}
	want := map[string]any{
		"msg":          "step evaluated",
		"level":        "INFO",
		FieldTraceID:   "rule#7",
		FieldRule:      "rule",
		FieldComponent: "query[1]",
	}
	for k, v := range want {
		if rec[k] != v {
			t.Errorf("record[%q] = %v, want %v", k, rec[k], v)
		}
	}
	if rec["tuples"] != float64(3) {
		t.Errorf("record[tuples] = %v, want 3", rec["tuples"])
	}
}

func TestLoggerTextFormatAndLevels(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, "text", slog.LevelWarn)
	lg.Debug("hidden")
	lg.Info("hidden too")
	lg.Warn("kept", FieldEndpoint, "http://svc")
	lg.Error("kept too")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("below-level records leaked:\n%s", out)
	}
	if !strings.Contains(out, "kept") || !strings.Contains(out, "endpoint=http://svc") {
		t.Errorf("missing warn record:\n%s", out)
	}
	if !strings.Contains(out, "kept too") {
		t.Errorf("missing error record:\n%s", out)
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var lg *Logger
	lg.Debug("x")
	lg.Info("x")
	lg.Warn("x")
	lg.Error("x", "k", "v")
	if got := lg.With("k", "v"); got != nil {
		t.Errorf("nil.With = %v, want nil", got)
	}
	if lg.Slog() != nil {
		t.Error("nil.Slog() should be nil")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug,
		"info":  slog.LevelInfo,
		"WARN":  slog.LevelWarn,
		"error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("shouting"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}

// noTime drops the time attribute so two records' lines can be compared.
func noTime(_ []string, a slog.Attr) slog.Attr {
	if a.Key == slog.TimeKey {
		return slog.Attr{}
	}
	return a
}

// The lazy With emits exactly the lines slog's own With does, through
// nested Withs and in both formats.
func TestLoggerWithLinesMatchSlog(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		var got, want bytes.Buffer
		mk := func(w *bytes.Buffer) *slog.Logger {
			opts := &slog.HandlerOptions{ReplaceAttr: noTime}
			if format == "json" {
				return slog.New(slog.NewJSONHandler(w, opts))
			}
			return slog.New(slog.NewTextHandler(w, opts))
		}
		lg := FromSlog(mk(&got))
		ref := mk(&want)
		inst := lg.With(FieldTraceID, "r#1", FieldRule, "r")
		inst.Info("instance created", "n", 1)
		inst.With(FieldComponent, "query[1]").Warn("step failed", "error", "boom\n\"quoted\"")
		inst.Info("again")
		refInst := ref.With(FieldTraceID, "r#1", FieldRule, "r")
		refInst.Info("instance created", "n", 1)
		refInst.With(FieldComponent, "query[1]").Warn("step failed", "error", "boom\n\"quoted\"")
		refInst.Info("again")
		if got.String() != want.String() {
			t.Errorf("%s lines differ:\n got %s\nwant %s", format, got.String(), want.String())
		}
	}
}

// countingHandler counts the WithAttrs calls that pre-format attributes.
type countingHandler struct {
	slog.Handler
	withAttrs *int
}

func (h countingHandler) WithAttrs(as []slog.Attr) slog.Handler {
	*h.withAttrs++
	return countingHandler{h.Handler.WithAttrs(as), h.withAttrs}
}

// With at a disabled level hands nothing to the handler; the first enabled
// record does, once.
func TestLoggerWithIsLazy(t *testing.T) {
	var buf bytes.Buffer
	n := 0
	lg := FromSlog(slog.New(countingHandler{slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelError}), &n}))
	inst := lg.With(FieldTraceID, "r#1")
	inst.Info("below the level")
	inst.With(FieldRule, "r").Debug("below the level")
	if n != 0 || buf.Len() != 0 {
		t.Fatalf("disabled records: %d WithAttrs calls, output %q", n, buf.String())
	}
	inst.Error("kept")
	inst.Error("kept again")
	if n != 1 || strings.Count(buf.String(), "trace_id=r#1") != 2 {
		t.Fatalf("%d WithAttrs calls, want 1; output %q", n, buf.String())
	}
}
