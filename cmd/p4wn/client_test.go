package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// doJSONOnce classifies each failure: backpressure (429, with its
// Retry-After hint), drain (503) and transport errors are retryable; a
// request the daemon judged wrong (400) is not.
func TestDoJSONOnceRetryPolicy(t *testing.T) {
	cases := []struct {
		name       string
		code       int
		retryAfter string
		wantErr    bool
		retryable  bool
		hint       time.Duration
	}{
		{"ok", http.StatusOK, "", false, false, 0},
		{"429 with Retry-After", http.StatusTooManyRequests, "2", true, true, 2 * time.Second},
		{"429 without Retry-After", http.StatusTooManyRequests, "", true, true, 0},
		{"503 draining", http.StatusServiceUnavailable, "", true, true, 0},
		{"400 bad spec", http.StatusBadRequest, "", true, false, 0},
		{"404 unknown job", http.StatusNotFound, "", true, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				w.WriteHeader(tc.code)
				w.Write([]byte(`{"error": "from server"}`))
			}))
			defer ts.Close()

			var out map[string]any
			err, hint, retryable := doJSONOnce(http.MethodPost, ts.URL, []byte(`{}`), &out)
			if (err != nil) != tc.wantErr || retryable != tc.retryable || hint != tc.hint {
				t.Fatalf("err=%v retryable=%v hint=%v, want err=%v retryable=%v hint=%v",
					err, retryable, hint, tc.wantErr, tc.retryable, tc.hint)
			}
		})
	}

	t.Run("connection refused", func(t *testing.T) {
		ts := httptest.NewServer(http.NotFoundHandler())
		url := ts.URL
		ts.Close()
		err, hint, retryable := doJSONOnce(http.MethodGet, url, nil, nil)
		if err == nil || !retryable || hint != 0 {
			t.Fatalf("err=%v retryable=%v hint=%v, want a retryable error", err, retryable, hint)
		}
	})
}

// retries=N makes exactly N+1 attempts against a daemon that never
// recovers, and stops at the first non-retryable answer.
func TestDoJSONRetryAttempts(t *testing.T) {
	baseDelay, maxDelay := retryBaseDelay, retryMaxDelay
	retryBaseDelay, retryMaxDelay = time.Millisecond, 4*time.Millisecond
	t.Cleanup(func() { retryBaseDelay, retryMaxDelay = baseDelay, maxDelay })

	for _, tc := range []struct {
		code    int
		retries int
		want    int64
	}{
		{http.StatusServiceUnavailable, 0, 1},
		{http.StatusServiceUnavailable, 3, 4},
		{http.StatusTooManyRequests, 2, 3},
		{http.StatusBadRequest, 3, 1},
	} {
		var attempts atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			attempts.Add(1)
			w.WriteHeader(tc.code)
		}))
		err := doJSONRetry(http.MethodPost, ts.URL, map[string]int{"seed": 1}, nil, tc.retries)
		ts.Close()
		if err == nil {
			t.Errorf("code %d: retries exhausted without an error", tc.code)
		}
		if got := attempts.Load(); got != tc.want {
			t.Errorf("code %d, retries=%d: %d attempts, want %d", tc.code, tc.retries, got, tc.want)
		}
	}
}
