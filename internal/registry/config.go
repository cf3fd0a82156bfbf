package registry

import (
	"fmt"
	"math"
	"strings"

	"swsketch/internal/core"
	"swsketch/internal/stream"
	"swsketch/internal/window"
)

// Framework names accepted by Config.Framework; they are the -algo
// vocabulary of cmd/swserve and cmd/swstream, which build their
// sketches through Config. The framework table (frameworks) records
// what each accepts.
const (
	FrameworkSWR     = "swr"      // sampling with replacement
	FrameworkSWOR    = "swor"     // sampling without replacement
	FrameworkSWORAll = "swor-all" // SWOR answering with every candidate row
	FrameworkLMFD    = "lm-fd"    // Logarithmic Method over FrequentDirections
	FrameworkLMHash  = "lm-hash"  // Logarithmic Method over feature hashing
	FrameworkDIFD    = "di-fd"    // Dyadic Interval over FrequentDirections
	FrameworkDSFD    = "ds-fd"    // dump-snapshot FrequentDirections (R optional)
	FrameworkLMAMM   = "lm-amm"   // Logarithmic Method over the COD co-sketch: windowed AᵀB
	FrameworkDIAMM   = "di-amm"   // Dyadic Interval over the COD co-sketch: windowed AᵀB
)

// Window kind names accepted by Config.Window.
const (
	// WindowSequence selects a sequence-based window of Size rows.
	WindowSequence = "sequence"
	// WindowTime selects a time-based window of span Size.
	WindowTime = "time"
)

// Config declaratively describes one tenant's sliding-window sketch:
// the framework, the window, and the sketch-size knobs. It is the
// JSON body of PUT /v2/tenants/{id}, the sketch the swserve and
// swstream flags describe, and the header of a spill file, so a tenant
// can be rebuilt from its config plus a binary snapshot.
//
// Sizing is either explicit (Ell, and B for the LM frameworks) or
// automatic: leave Ell zero and set Eps to a target covariance error,
// and the swr/lm-fd frameworks size themselves via the harness
// calibration (core.AutoSWR / core.AutoLMFD).
type Config struct {
	// Framework selects the sketch family; one of the Framework
	// constants ("swr", "swor", "swor-all", "lm-fd", "lm-hash",
	// "di-fd", "ds-fd", "lm-amm", "di-amm").
	Framework string `json:"framework"`
	// Window is "sequence" (Size = N rows) or "time" (Size = span Δ).
	Window string `json:"window"`
	// Size is the window extent: the row count N for sequence windows
	// or the timestamp span Δ for time windows.
	Size float64 `json:"size"`
	// D is the row dimension. For the paired (AMM) frameworks it is the
	// TOTAL stacked dimension dA+dB: every ingest route moves stacked
	// rows [a|b], so the registry, WAL, and wire protocols treat paired
	// tenants exactly like single-stream ones.
	D int `json:"d"`
	// DB is the B-side suffix width for the paired (AMM) frameworks:
	// each stacked row splits as a = row[:D-DB], b = row[D-DB:].
	// Required for lm-amm/di-amm (0 < DB < D); disallowed elsewhere.
	DB int `json:"d_b,omitempty"`
	// Ell is the sketch-size parameter ℓ (rows per block for LM/DI,
	// sample budget for the samplers). Zero defers to Eps auto-sizing
	// where supported.
	Ell int `json:"ell,omitempty"`
	// B is the LM blocks-per-level knob (≈ 8/ε); ignored elsewhere.
	// Zero defaults to 8.
	B int `json:"b,omitempty"`
	// Eps is the target error used to auto-size the sketch when Ell is
	// zero (swr, lm-fd, ds-fd, and lm-amm).
	Eps float64 `json:"eps,omitempty"`
	// Seed seeds the samplers' random source and the hashing
	// frameworks' hash functions. Zero defaults to 1.
	Seed int64 `json:"seed,omitempty"`
	// L is the DI level count; required for di-fd and di-amm.
	L int `json:"levels,omitempty"`
	// R is the maximum squared row norm bound (stacked-row norm for the
	// paired frameworks); required for di-fd and di-amm, optional for
	// ds-fd (zero lets ds-fd track the bound adaptively).
	R float64 `json:"r,omitempty"`
	// FDBuffer is the FastFD working-buffer factor b applied to every
	// FrequentDirections or COD block sketch (the fd and amm
	// frameworks): the sketch buffers up to b·ℓ rows between amortized
	// shrinks. Zero and 1 both select the classic shrink-on-full
	// cadence — and the classic snapshot bytes; 2 is the benchmarked
	// recommendation.
	FDBuffer int `json:"fd_buffer,omitempty"`
	// FDAlpha is the FastFD shrink aggressiveness α ∈ (0,1] (fd and
	// amm frameworks); zero defaults to 1, the classic halving shrink.
	FDAlpha float64 `json:"fd_alpha,omitempty"`
}

// normalize fills defaulted fields and canonicalises the enum casing.
func (c Config) normalize() Config {
	c.Framework = strings.ToLower(strings.TrimSpace(c.Framework))
	c.Window = strings.ToLower(strings.TrimSpace(c.Window))
	if c.Window == "" {
		c.Window = WindowSequence
	}
	if c.B == 0 {
		c.B = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// fdOpts translates the FastFD knobs into the stream-layer options;
// zero fields fall through to the classic defaults.
func (c Config) fdOpts() stream.FDOpts {
	return stream.FDOpts{Buffer: c.FDBuffer, Alpha: c.FDAlpha}
}

// diConfig is the DI framework config of di-fd and di-amm.
func (c Config) diConfig() core.DIConfig {
	return core.DIConfig{N: int(c.Size), R: c.R, L: c.L, Ell: c.Ell, RSlack: 1.01}
}

// framework is one row of the framework table: what the registry knows
// about a framework. The sketch's own limits are its constructor's.
type framework struct {
	key     string // the Config.Framework name
	name    string // the built sketch's Name()
	seqOnly bool   // accepts sequence windows only
	paired  bool   // takes stacked rows [a|b] split by d_b
	auto    bool   // ell = 0 sizes the sketch from eps
	fd      bool   // fd_buffer/fd_alpha apply
	build   func(c Config, spec window.Spec) core.TenantSketch
}

// frameworks is the framework table, in documentation order.
var frameworks = []framework{
	{key: FrameworkSWR, name: "SWR", auto: true, build: func(c Config, spec window.Spec) core.TenantSketch {
		if c.Ell == 0 {
			return core.AutoSWR(spec, c.D, c.Eps, c.Seed)
		}
		return core.NewSWR(spec, c.Ell, c.D, c.Seed)
	}},
	{key: FrameworkSWOR, name: "SWOR", build: func(c Config, spec window.Spec) core.TenantSketch {
		return core.NewSWOR(spec, c.Ell, c.D, c.Seed)
	}},
	{key: FrameworkSWORAll, name: "SWOR-ALL", build: func(c Config, spec window.Spec) core.TenantSketch {
		return core.NewSWORAll(spec, c.Ell, c.D, c.Seed)
	}},
	{key: FrameworkLMFD, name: "LM-FD", auto: true, fd: true, build: func(c Config, spec window.Spec) core.TenantSketch {
		if c.Ell == 0 {
			return core.AutoLMFDOpts(spec, c.D, c.Eps, c.fdOpts())
		}
		return core.NewLMFDOpts(spec, c.D, c.Ell, c.B, c.fdOpts())
	}},
	{key: FrameworkLMHash, name: "LM-HASH", build: func(c Config, spec window.Spec) core.TenantSketch {
		return core.NewLMHash(spec, c.D, c.Ell, c.B, uint64(c.Seed))
	}},
	{key: FrameworkDIFD, name: "DI-FD", seqOnly: true, fd: true, build: func(c Config, _ window.Spec) core.TenantSketch {
		return core.NewDIFDOpts(c.diConfig(), c.D, c.fdOpts())
	}},
	{key: FrameworkDSFD, name: "DS-FD", seqOnly: true, auto: true, fd: true, build: func(c Config, _ window.Spec) core.TenantSketch {
		if c.Ell == 0 {
			return core.AutoDSFDOpts(int(c.Size), c.D, c.Eps, c.fdOpts())
		}
		return core.NewDSFD(core.DSFDConfig{
			N: int(c.Size), Ell: c.Ell, R: c.R, RSlack: 1.01, FD: c.fdOpts(),
		}, c.D)
	}},
	{key: FrameworkLMAMM, name: "LM-AMM", paired: true, auto: true, fd: true, build: func(c Config, spec window.Spec) core.TenantSketch {
		if c.Ell == 0 {
			return core.AutoAMM(spec, c.D-c.DB, c.DB, c.Eps, c.fdOpts())
		}
		return core.NewLMAMMOpts(spec, c.D-c.DB, c.DB, c.Ell, c.B, c.fdOpts())
	}},
	{key: FrameworkDIAMM, name: "DI-AMM", seqOnly: true, paired: true, fd: true, build: func(c Config, _ window.Spec) core.TenantSketch {
		return core.NewDIAMMOpts(c.diConfig(), c.D-c.DB, c.DB, c.fdOpts())
	}},
}

// Frameworks returns every framework name the registry accepts, in
// documentation order. The conformance suite's coverage test asserts
// each is exercised by the shared contract battery.
func Frameworks() []string {
	out := make([]string, len(frameworks))
	for i, f := range frameworks {
		out[i] = f.key
	}
	return out
}

// lookup returns the table row of a framework name, or nil.
func lookup(key string) *framework {
	for i := range frameworks {
		if frameworks[i].key == key {
			return &frameworks[i]
		}
	}
	return nil
}

// algoName maps the framework to the sketch's Name() without building
// one.
func (c Config) algoName() string {
	if f := lookup(c.normalize().Framework); f != nil {
		return f.name
	}
	return c.Framework
}

// Spec returns the window specification the config describes, or the
// window's own error (window.Spec.Check) when its size is invalid.
func (c Config) Spec() (window.Spec, error) {
	s := window.Spec{Kind: window.Time, Size: c.Size}
	if c.normalize().Window != WindowTime {
		s = window.Spec{Kind: window.Sequence, Size: float64(int(c.Size))}
	}
	return s, s.Check()
}

// Build constructs the sketch the config describes, or reports the
// first problem found, phrased for an API error message: a rule of the
// framework table, or the constructor's panic on its own limits.
func (c Config) Build() (sk core.TenantSketch, err error) {
	c = c.normalize()
	f, err := c.check()
	if err != nil {
		return nil, err
	}
	spec, err := c.Spec()
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			sk, err = nil, fmt.Errorf("%v", r)
		}
	}()
	return f.build(c, spec), nil
}

// check applies the rules no constructor can see and returns the
// framework's table row. c is normalized.
func (c Config) check() (*framework, error) {
	f := lookup(c.Framework)
	switch {
	case c.Framework == "":
		return nil, fmt.Errorf("framework is required")
	case f == nil:
		return nil, fmt.Errorf("unknown framework %q", c.Framework)
	case c.Window != WindowSequence && c.Window != WindowTime:
		return nil, fmt.Errorf("unknown window kind %q (want %q or %q)", c.Window, WindowSequence, WindowTime)
	case f.seqOnly && c.Window != WindowSequence:
		return nil, fmt.Errorf("%s supports sequence windows only", c.Framework)
	case c.Window == WindowSequence && c.Size != math.Trunc(c.Size):
		return nil, fmt.Errorf("sequence window size must be an integer row count, got %v", c.Size)
	case f.paired && c.DB == 0:
		return nil, fmt.Errorf("%s requires d_b in (0,d): the B-side suffix width of the stacked dimension d=%d", c.Framework, c.D)
	case !f.paired && c.DB != 0:
		return nil, fmt.Errorf("d_b applies to the paired (amm) frameworks only, not %q", c.Framework)
	case !f.fd && (c.FDBuffer != 0 || c.FDAlpha != 0):
		return nil, fmt.Errorf("fd_buffer/fd_alpha apply to the FD and AMM frameworks only, not %q", c.Framework)
	case c.Ell == 0 && !f.auto:
		return nil, fmt.Errorf("framework %q requires an explicit ell", c.Framework)
	}
	return f, nil
}
