package tenant

import (
	"errors"
	"time"
)

// WithClock injects the time source used by rate buckets — tests use
// it for deterministic refill.
func WithClock(now func() time.Time) Option {
	return func(r *Registry) { r.now = now }
}

// IsQuota reports whether err is a quota rejection, unwrapping as
// needed.
func IsQuota(err error) bool {
	var qe *QuotaError
	return errors.As(err, &qe)
}
