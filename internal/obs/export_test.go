package obs

import "log/slog"

// FromSlog wraps an existing slog logger; nil yields the discard logger.
func FromSlog(s *slog.Logger) *Logger {
	if s == nil {
		return nil
	}
	return newLogger(s)
}
