package serve

import (
	"math"
	"net/http"
	"testing"
	"time"
)

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name  string
		value string
		want  time.Duration
		ok    bool
	}{
		{"delta-seconds", "2", 2 * time.Second, true},
		{"delta-zero", "0", 0, true},
		{"delta-spaces", "  30 ", 30 * time.Second, true},
		{"delta-negative", "-1", 0, false},
		// Deltas whose nanoseconds overflow int64 clamp to the longest wait.
		{"delta-overflow", "9223372037", math.MaxInt64 / time.Second * time.Second, true},
		{"delta-overflow-wrap", "18446744073", math.MaxInt64 / time.Second * time.Second, true},
		{"delta-past-int64", "99999999999999999999", math.MaxInt64 / time.Second * time.Second, true},
		{"delta-negative-past-int64", "-99999999999999999999", 0, false},
		{"http-date-future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		{"http-date-past", now.Add(-time.Hour).Format(http.TimeFormat), 0, true},
		{"empty", "", 0, false},
		{"garbage", "soon", 0, false},
		{"float", "1.5", 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := ParseRetryAfter(tc.value, now)
			if ok != tc.ok || got != tc.want {
				t.Fatalf("ParseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.value, got, ok, tc.want, tc.ok)
			}
		})
	}

	// RFC 1123 dates carry whole seconds; a future date through the parser
	// must round-trip within a second even when "now" is mid-second.
	if d, ok := ParseRetryAfter(time.Now().Add(10*time.Second).UTC().Format(http.TimeFormat), time.Now()); !ok || d > 10*time.Second || d < 8*time.Second {
		t.Fatalf("wall-clock HTTP-date parse = (%v, %v), want ~9-10s", d, ok)
	}
}
