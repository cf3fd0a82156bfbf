package serve

// Hot-key observability: WithHotKeys attaches an internal/obs/hh
// sidecar and the server feeds it from every ingest entry point —
// registry acquisitions (via the touch hook), committed live blocks
// (rows, bulk items and stream blocks all pass the apply step), shed
// and failed requests, and WAL appends.
// GET /debug/hotkeys serves the sidecar's merged snapshot; the
// /v2/health body gains a "hotkeys" object when the sidecar is
// enabled; topk_enter/topk_exit churn lands in the trace ring.

import (
	"net/http"

	"swsketch/internal/obs/hh"
)

// WithHotKeys attaches a hot-key sidecar (internal/obs/hh): per-
// tenant rows/bytes/events/WAL/touch telemetry over a sliding
// window, served on GET /debug/hotkeys. When combined with
// WithMetrics the sidecar's aggregate skew gauges (top-K share, Zipf
// exponent, distinct-tenant estimate) land in the same registry, and
// with WithTrace its top-K churn events land in the same ring.
func WithHotKeys(h *hh.Sidecar) Option {
	return func(s *Server) {
		if h == nil {
			panic("serve: nil hot-key sidecar")
		}
		s.hot = h
	}
}

// hotkeysHealth is the health endpoint's view of the hot-key
// sidecar; present only when one is attached.
type hotkeysHealth struct {
	// Enabled is always true when the object is present.
	Enabled bool `json:"enabled"`
	// WindowSeconds is the sidecar's sliding decay window.
	WindowSeconds float64 `json:"window_seconds"`
	// TopK is the number of hot tenants tracked and reported.
	TopK int `json:"top_k"`
}

// handleHotkeys serves GET /debug/hotkeys: the sidecar's merged
// top-K snapshot with per-plane estimates, count-min error bounds,
// and aggregate skew statistics (see internal/obs/hh.Snapshot).
func (s *Server) handleHotkeys(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.hot.Snapshot())
}
