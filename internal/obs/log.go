package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"
)

// Canonical structured-log field names. Every log line emitted by the
// engine, the GRH and the component services uses these keys, so one
// trace_id query over the logs yields the full story of a rule instance
// across processes.
const (
	FieldTraceID   = "trace_id"  // rule-instance id, "<rule>#<n>"
	FieldRule      = "rule"      // rule id
	FieldComponent = "component" // component id within the rule, "query[2]"
	FieldEndpoint  = "endpoint"  // remote service endpoint URL
)

// Logger is the structured logger of the observability subsystem, a thin
// nil-safe wrapper around log/slog. A nil *Logger discards everything, so
// instrumented packages hold one unconditionally and never branch on
// "is logging enabled".
//
// With is lazy: it only records its attributes, and they are handed to
// slog (whose handlers pre-format them) when the logger first emits a
// record at an enabled level. A logger made per rule instance or per
// request costs no formatting when its level is off, and the lines it
// emits are the ones slog's own With would give.
type Logger struct {
	root *slog.Logger
	args []any // attributes added by With, in order
	s    atomic.Pointer[slog.Logger]
}

func newLogger(s *slog.Logger) *Logger {
	l := &Logger{root: s}
	l.s.Store(s)
	return l
}

// logger returns root.With(args...), built once.
func (l *Logger) logger() *slog.Logger {
	if s := l.s.Load(); s != nil {
		return s
	}
	s := l.root.With(l.args...)
	l.s.Store(s)
	return s
}

// ParseLevel parses a -log-level flag value (debug, info, warn, error;
// case-insensitive, slog's "INFO+2" offsets also accepted).
func ParseLevel(s string) (slog.Level, error) {
	var l slog.Level
	if err := l.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("obs: bad log level %q (want debug|info|warn|error)", s)
	}
	return l, nil
}

// NewLogger builds a leveled structured logger writing to w. Format is
// "json" for one JSON object per line or anything else (conventionally
// "text") for slog's key=value text handler.
func NewLogger(w io.Writer, format string, level slog.Level) *Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if format == "json" {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return newLogger(slog.New(h))
}

// Slog returns the underlying slog logger, With's attributes included (nil
// for the discard logger).
func (l *Logger) Slog() *slog.Logger {
	if l == nil {
		return nil
	}
	return l.logger()
}

// With returns a logger that adds the given key/value pairs to every
// record, e.g. With(obs.FieldTraceID, id, obs.FieldRule, rule) for an
// instance-scoped logger. Nil-safe.
func (l *Logger) With(args ...any) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{root: l.root, args: append(l.args[:len(l.args):len(l.args)], args...)}
}

// Enabled reports whether l emits records at level (never, for the
// discard logger). A hot path checks it before building a record's
// arguments, so a record whose level is off costs nothing.
func (l *Logger) Enabled(level slog.Level) bool {
	return l != nil && l.root.Enabled(context.Background(), level)
}

func (l *Logger) log(level slog.Level, msg string, args []any) {
	if !l.Enabled(level) {
		return
	}
	l.logger().Log(context.Background(), level, msg, args...)
}

// Debug logs at debug level.
func (l *Logger) Debug(msg string, args ...any) { l.log(slog.LevelDebug, msg, args) }

// Info logs at info level.
func (l *Logger) Info(msg string, args ...any) { l.log(slog.LevelInfo, msg, args) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, args ...any) { l.log(slog.LevelWarn, msg, args) }

// Error logs at error level.
func (l *Logger) Error(msg string, args ...any) { l.log(slog.LevelError, msg, args) }
