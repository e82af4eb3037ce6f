package serve

import (
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ParseRetryAfter interprets a Retry-After header value per RFC 9110
// §10.2.3: either a non-negative integer delta in seconds ("120") or an
// HTTP-date ("Fri, 08 Aug 2026 15:04:05 GMT", plus the legacy RFC 850 and
// asctime forms http.ParseTime accepts). The returned duration is how long
// the caller should wait from now; a date already in the past parses as 0.
// ok is false for an empty, negative or unparseable value — callers fall
// back to their own backoff schedule then. A delta too long for a
// time.Duration clamps to the longest whole-second one, so the caller's cap
// applies.
//
// The proxy's retry loop honors the service's 429/503 hints through it, so
// the two sides of the protocol cannot drift.
func ParseRetryAfter(value string, now time.Time) (wait time.Duration, ok bool) {
	value = strings.TrimSpace(value)
	if value == "" {
		return 0, false
	}
	if secs, err := strconv.ParseInt(value, 10, 64); err == nil {
		return time.Duration(min(max(secs, 0), math.MaxInt64/int64(time.Second))) * time.Second, secs >= 0
	}
	if t, err := http.ParseTime(value); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}
