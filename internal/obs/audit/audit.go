// Package audit is the online accuracy auditor: it keeps a budgeted
// shadow oracle (window.Exact) next to a serving sketch and
// periodically measures the paper's covariance error
//
//	cova-err = ‖AᵀA − BᵀB‖₂ / ‖A‖²_F
//
// against the sketch's own answers — turning the accuracy contract
// from an offline evaluation artifact into live, alertable telemetry.
// It also tracks the observed norm ratio R̂ = max‖a‖²/min‖a‖² (the
// quantity the DI framework's space bound assumes a declared bound
// for) and the drift of the error between evaluations.
//
// The shadow oracle is exact, so it costs O(window·d) memory and one
// O(window·d²) Gram recomputation per evaluation. The auditor is
// therefore budgeted: evaluations run once every Stride rows, and if
// the window grows past MaxShadowRows the auditor disarms itself
// (drops the shadow, reports capped) rather than take down the
// serving process. Results publish as gauges and histograms in an
// obs.Registry and drive the serve layer's GET /v2/health verdict.
package audit

import (
	"fmt"
	"math"
	"sync"
	"time"

	"swsketch/internal/mat"
	"swsketch/internal/obs"
	"swsketch/internal/window"
)

// Defaults used when the corresponding Config field is zero.
const (
	DefaultStride        = 64
	DefaultMaxShadowRows = 100000
	DefaultErrThreshold  = 0.5
)

// Config parameterises an Auditor.
type Config struct {
	// Spec is the sliding-window specification, which must match the
	// audited sketch's window.
	Spec window.Spec
	// D is the row dimension.
	D int
	// Stride is the evaluation cadence in ingested rows: the auditor
	// recomputes cova-err after every Stride-th observed row (at batch
	// boundaries). 0 means DefaultStride; negative disables periodic
	// evaluation (Evaluate still works on demand).
	Stride int
	// MaxShadowRows caps the shadow window's row count. When the live
	// window exceeds it, the auditor disarms: the shadow is dropped
	// and Status reports Capped. 0 means DefaultMaxShadowRows;
	// negative means no cap.
	MaxShadowRows int
	// ErrThreshold is the cova-err level at which Status reports
	// degraded. 0 means DefaultErrThreshold.
	ErrThreshold float64
}

func (c Config) withDefaults() Config {
	if c.D < 1 {
		panic(fmt.Sprintf("audit: dimension %d", c.D))
	}
	if c.Stride == 0 {
		c.Stride = DefaultStride
	}
	if c.MaxShadowRows == 0 {
		c.MaxShadowRows = DefaultMaxShadowRows
	}
	if c.ErrThreshold == 0 {
		c.ErrThreshold = DefaultErrThreshold
	}
	return c
}

// CovaErrBuckets is the histogram layout for observed covariance
// errors: the interesting range spans "excellent" (≤0.01) through
// "contract violated" (≥1).
var CovaErrBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 1, 1.5, 2,
}

// Result is one evaluation's outcome.
type Result struct {
	T          float64 `json:"t"`           // stream time of the evaluation
	CovaErr    float64 `json:"cova_err"`    // ‖AᵀA − BᵀB‖₂/‖A‖²_F
	NormRatio  float64 `json:"norm_ratio"`  // observed R̂ (0 until two norms seen)
	Drift      float64 `json:"drift"`       // cova-err change since previous evaluation
	ShadowRows int     `json:"shadow_rows"` // rows in the shadow window
}

// Status is the health view served by GET /v2/health.
type Status struct {
	// Active is true while the auditor is armed (not capped).
	Active bool `json:"active"`
	// Capped reports that the live window exceeded MaxShadowRows and
	// auditing disarmed itself.
	Capped bool `json:"capped"`
	// Warming reports that evaluations are suspended until the shadow
	// has re-covered a full window after Reset.
	Warming bool `json:"warming"`
	// Degraded is Active && the latest cova-err exceeds Threshold.
	Degraded  bool    `json:"degraded"`
	Threshold float64 `json:"threshold"`
	// Evaluations counts completed evaluations; the embedded Result is
	// the latest one (zero until the first evaluation).
	Evaluations uint64 `json:"evaluations"`
	Result
}

// Auditor maintains the shadow oracle and evaluation state. All
// methods are safe for concurrent use; a nil *Auditor is inert (every
// method is a no-op), so call sites need no guards.
type Auditor struct {
	mu  sync.Mutex
	cfg Config

	shadow    *window.Exact
	rowsSince int // rows observed since the last evaluation
	capped    bool

	// Warmup after Reset: evaluations stay suspended until the shadow
	// covers a full window again (otherwise the shadow is a suffix of
	// the true window and cova-err would compare against the wrong A).
	warming   bool
	warmRows  int     // sequence windows: rows ingested since Reset
	warmStart float64 // time windows: first timestamp after Reset
	warmSeen  bool

	lastT            float64
	seen             bool
	normMin, normMax float64

	evals   uint64
	last    Result
	haveRes bool

	covaGauge   *obs.Gauge
	ratioGauge  *obs.Gauge
	driftGauge  *obs.Gauge
	shadowGauge *obs.Gauge
	evalsTotal  *obs.Counter
	evalSecs    *obs.Histogram
	errHist     *obs.Histogram
}

// New returns an armed auditor publishing into reg (a throwaway
// registry is used when reg is nil, for registry-less embedders like
// the CLI tools).
func New(cfg Config, reg *obs.Registry) *Auditor {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	a := &Auditor{
		cfg:    cfg,
		shadow: window.NewExact(cfg.Spec, cfg.D),
		covaGauge: reg.Gauge("swsketch_audit_cova_err",
			"Latest audited covariance error ‖AᵀA−BᵀB‖₂/‖A‖²_F.", nil),
		ratioGauge: reg.Gauge("swsketch_audit_norm_ratio",
			"Observed squared-norm ratio R̂ = max‖a‖²/min‖a‖².", nil),
		driftGauge: reg.Gauge("swsketch_audit_err_drift",
			"Change in cova-err since the previous evaluation.", nil),
		shadowGauge: reg.Gauge("swsketch_audit_shadow_rows",
			"Rows held by the audit shadow window.", nil),
		evalsTotal: reg.Counter("swsketch_audit_evaluations_total",
			"Completed audit evaluations.", nil),
		evalSecs: reg.Histogram("swsketch_audit_eval_seconds",
			"Latency of one audit evaluation (shadow Gram + spectral norm).", nil, nil),
		errHist: reg.Histogram("swsketch_audit_cova_err_hist",
			"Distribution of audited covariance errors.", nil, CovaErrBuckets),
	}
	return a
}

// Config returns the effective (defaulted) configuration.
func (a *Auditor) Config() Config {
	if a == nil {
		return Config{}
	}
	return a.cfg
}

// ObserveBatch feeds the rows the serving sketch just ingested into
// the shadow window and, when the stride elapses, evaluates the sketch
// via query (called with the latest stream time while the auditor's
// lock is held — pass a closure over the sketch, locked by the caller
// as usual). No-op on a nil or capped auditor.
func (a *Auditor) ObserveBatch(rows [][]float64, times []float64, query func(t float64) *mat.Dense) {
	if a == nil || len(rows) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.capped {
		return
	}
	a.shadow.UpdateBatch(rows, times)
	for _, r := range rows {
		w := mat.SqNorm(r)
		if w == 0 {
			continue
		}
		if a.normMin == 0 || w < a.normMin {
			a.normMin = w
		}
		if w > a.normMax {
			a.normMax = w
		}
	}
	t := times[len(times)-1]
	a.lastT, a.seen = t, true
	a.shadowGauge.Set(float64(a.shadow.Len()))

	if a.cfg.MaxShadowRows > 0 && a.shadow.Len() > a.cfg.MaxShadowRows {
		// Disarm rather than let the exact shadow eat the process.
		a.capped = true
		a.shadow = nil
		a.shadowGauge.Set(0)
		return
	}

	if a.warming {
		if !a.warmSeen {
			a.warmStart, a.warmSeen = times[0], true
		}
		a.warmRows += len(rows)
		if a.warmed(t) {
			a.warming = false
		} else {
			return
		}
	}
	if a.cfg.Stride < 0 || query == nil {
		return
	}
	a.rowsSince += len(rows)
	if a.rowsSince >= a.cfg.Stride {
		a.rowsSince = 0
		a.evaluateLocked(t, query)
	}
}

// warmed reports whether the shadow covers a full window again.
func (a *Auditor) warmed(t float64) bool {
	if a.cfg.Spec.Kind == window.Sequence {
		return float64(a.warmRows) >= a.cfg.Spec.Size
	}
	return a.warmSeen && t-a.warmStart >= a.cfg.Spec.Size
}

// Evaluate forces an evaluation at the latest observed stream time,
// returning the result. ok is false when the auditor is nil, capped,
// warming, or has observed no rows.
func (a *Auditor) Evaluate(query func(t float64) *mat.Dense) (res Result, ok bool) {
	if a == nil {
		return Result{}, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.capped || a.warming || !a.seen {
		return Result{}, false
	}
	a.evaluateLocked(a.lastT, query)
	return a.last, true
}

// evaluateLocked runs one evaluation; the caller holds a.mu.
func (a *Auditor) evaluateLocked(t float64, query func(t float64) *mat.Dense) {
	start := time.Now()
	b := query(t)
	err := a.shadow.CovaErr(b)
	a.evalSecs.Observe(time.Since(start).Seconds())

	drift := 0.0
	if a.haveRes {
		drift = err - a.last.CovaErr
	}
	ratio := 0.0
	if a.normMin > 0 {
		ratio = a.normMax / a.normMin
	}
	a.last = Result{T: t, CovaErr: err, NormRatio: ratio, Drift: drift, ShadowRows: a.shadow.Len()}
	a.haveRes = true
	a.evals++

	a.covaGauge.Set(err)
	a.ratioGauge.Set(ratio)
	a.driftGauge.Set(drift)
	a.evalsTotal.Inc()
	if !math.IsNaN(err) && !math.IsInf(err, 0) {
		a.errHist.Observe(err)
	}
}

// Status returns the current health view.
func (a *Auditor) Status() Status {
	if a == nil {
		return Status{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Status{
		Active:      !a.capped,
		Capped:      a.capped,
		Warming:     a.warming && !a.capped,
		Threshold:   a.cfg.ErrThreshold,
		Evaluations: a.evals,
	}
	if a.haveRes {
		s.Result = a.last
		s.Degraded = s.Active && a.last.CovaErr > a.cfg.ErrThreshold
	}
	return s
}

// Reset discards the shadow window (after a snapshot restore, say,
// when the true window contents are unknowable) and re-arms the
// auditor in the warming state: evaluations stay suspended until the
// shadow has re-covered one full window.
func (a *Auditor) Reset() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.shadow = window.NewExact(a.cfg.Spec, a.cfg.D)
	a.capped = false
	a.warming = true
	a.warmRows = 0
	a.warmSeen = false
	a.rowsSince = 0
	a.normMin, a.normMax = 0, 0
	a.seen = false
	a.haveRes = false
	a.last = Result{}
	a.shadowGauge.Set(0)
	a.covaGauge.Set(0)
	a.ratioGauge.Set(0)
	a.driftGauge.Set(0)
}

// ShadowRows reports the shadow window's current row count (0 when
// capped).
func (a *Auditor) ShadowRows() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.shadow == nil {
		return 0
	}
	return a.shadow.Len()
}
