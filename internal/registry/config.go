package registry

import (
	"fmt"
	"strings"

	"swsketch/internal/core"
	"swsketch/internal/stream"
	"swsketch/internal/window"
)

// Framework names accepted by Config.Framework; they are the -algo
// vocabulary of cmd/swserve and cmd/swstream, which build their
// sketches through Config.
const (
	// FrameworkSWR is the sampling-with-replacement sketch.
	FrameworkSWR = "swr"
	// FrameworkSWOR is the sampling-without-replacement sketch.
	FrameworkSWOR = "swor"
	// FrameworkSWORAll is the SWOR variant answering with every
	// candidate row.
	FrameworkSWORAll = "swor-all"
	// FrameworkLMFD is the Logarithmic Method over FrequentDirections
	// — the paper's recommended general-purpose sketch and the only
	// framework whose spill/restore is bit-exact deterministic.
	FrameworkLMFD = "lm-fd"
	// FrameworkLMHash is the Logarithmic Method over feature hashing.
	FrameworkLMHash = "lm-hash"
	// FrameworkDIFD is the Dyadic Interval framework over
	// FrequentDirections (sequence windows only).
	FrameworkDIFD = "di-fd"
	// FrameworkDSFD is the dump-snapshot FrequentDirections sketch
	// (sequence windows only): deterministic, spill/restore bit-exact,
	// with absolute covariance error within N·R/ℓ. R is optional — when
	// omitted the norm bound is tracked adaptively.
	FrameworkDSFD = "ds-fd"
	// FrameworkLMAMM is the Logarithmic Method over the COD co-sketch:
	// a paired-stream sketch answering windowed AᵀB (approximate matrix
	// multiplication) queries over stacked rows [a|b]. Requires DB (the
	// B-side suffix width); deterministic and spill/restore bit-exact.
	FrameworkLMAMM = "lm-amm"
	// FrameworkDIAMM is the Dyadic Interval framework over the COD
	// co-sketch (sequence windows only); same paired-stream contract as
	// lm-amm.
	FrameworkDIAMM = "di-amm"
)

// Frameworks returns every framework name the registry accepts, in
// documentation order. The conformance suite's coverage test asserts
// each is exercised by the shared contract battery.
func Frameworks() []string {
	return []string{
		FrameworkSWR, FrameworkSWOR, FrameworkSWORAll,
		FrameworkLMFD, FrameworkLMHash, FrameworkDIFD, FrameworkDSFD,
		FrameworkLMAMM, FrameworkDIAMM,
	}
}

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

// Validate checks the config without building a sketch; it reports
// the first problem found, phrased for an API error message.
func (c Config) Validate() error {
	c = c.normalize()
	switch c.Framework {
	case FrameworkSWR, FrameworkSWOR, FrameworkSWORAll, FrameworkLMFD, FrameworkLMHash,
		FrameworkDIFD, FrameworkDSFD, FrameworkLMAMM, FrameworkDIAMM:
	case "":
		return fmt.Errorf("framework is required")
	default:
		return fmt.Errorf("unknown framework %q", c.Framework)
	}
	switch c.Window {
	case WindowSequence, WindowTime:
	default:
		return fmt.Errorf("unknown window kind %q (want %q or %q)", c.Window, WindowSequence, WindowTime)
	}
	if c.Size <= 0 {
		return fmt.Errorf("window size must be positive, got %v", c.Size)
	}
	if c.Window == WindowSequence && c.Size != float64(int(c.Size)) {
		return fmt.Errorf("sequence window size must be an integer row count, got %v", c.Size)
	}
	if c.D < 1 {
		return fmt.Errorf("dimension d must be ≥ 1, got %d", c.D)
	}
	if c.Ell < 0 {
		return fmt.Errorf("ell must be ≥ 0, got %d", c.Ell)
	}
	switch c.Framework {
	case FrameworkLMAMM, FrameworkDIAMM:
		if c.DB < 1 || c.DB >= c.D {
			return fmt.Errorf("%s requires d_b in (0,d): the B-side suffix width of the stacked dimension d=%d, got %d", c.Framework, c.D, c.DB)
		}
	default:
		if c.DB != 0 {
			return fmt.Errorf("d_b applies to the paired (amm) frameworks only, not %q", c.Framework)
		}
	}
	if c.Ell == 0 {
		switch c.Framework {
		case FrameworkSWR, FrameworkLMFD, FrameworkDSFD, FrameworkLMAMM:
			if c.Eps <= 0 || c.Eps >= 1 {
				return fmt.Errorf("ell is zero, so eps must be in (0,1) to auto-size, got %v", c.Eps)
			}
		default:
			return fmt.Errorf("framework %q requires an explicit ell", c.Framework)
		}
	}
	if c.B < 0 {
		return fmt.Errorf("b must be ≥ 0, got %d", c.B)
	}
	if c.Framework == FrameworkDIFD || c.Framework == FrameworkDIAMM {
		if c.Window != WindowSequence {
			return fmt.Errorf("%s supports sequence windows only", c.Framework)
		}
		if c.L < 1 {
			return fmt.Errorf("%s requires levels ≥ 1, got %d", c.Framework, c.L)
		}
		if c.R <= 0 {
			return fmt.Errorf("%s requires a positive max squared row norm r, got %v", c.Framework, c.R)
		}
	}
	if c.Framework == FrameworkLMAMM && c.Ell != 0 && c.Ell < 2 {
		return fmt.Errorf("lm-amm requires ell ≥ 2, got %d", c.Ell)
	}
	if c.Framework == FrameworkDSFD {
		if c.Window != WindowSequence {
			return fmt.Errorf("ds-fd supports sequence windows only")
		}
		if c.Ell != 0 && c.Ell < 2 {
			return fmt.Errorf("ds-fd requires ell ≥ 2, got %d", c.Ell)
		}
		if c.R < 0 {
			return fmt.Errorf("ds-fd norm bound r must be ≥ 0 (0 = adaptive), got %v", c.R)
		}
	}
	if c.FDBuffer < 0 {
		return fmt.Errorf("fd_buffer must be ≥ 0, got %d", c.FDBuffer)
	}
	if c.FDAlpha < 0 || c.FDAlpha > 1 {
		return fmt.Errorf("fd_alpha must be in (0,1] (0 for the default), got %v", c.FDAlpha)
	}
	if c.FDBuffer != 0 || c.FDAlpha != 0 {
		switch c.Framework {
		case FrameworkLMFD, FrameworkDIFD, FrameworkDSFD, FrameworkLMAMM, FrameworkDIAMM:
		default:
			return fmt.Errorf("fd_buffer/fd_alpha apply to the FD and AMM frameworks only, not %q", c.Framework)
		}
	}
	return nil
}

// fdOpts translates the FastFD knobs into the stream-layer options;
// zero fields fall through to the classic defaults.
func (c Config) fdOpts() stream.FDOpts {
	return stream.FDOpts{Buffer: c.FDBuffer, Alpha: c.FDAlpha}
}

// algoName maps the framework to the sketch's Name() without building
// one (used when registering spilled stubs at startup).
func (c Config) algoName() string {
	switch c.normalize().Framework {
	case FrameworkSWR:
		return "SWR"
	case FrameworkSWOR:
		return "SWOR"
	case FrameworkSWORAll:
		return "SWOR-ALL"
	case FrameworkLMFD:
		return "LM-FD"
	case FrameworkLMHash:
		return "LM-HASH"
	case FrameworkDIFD:
		return "DI-FD"
	case FrameworkDSFD:
		return "DS-FD"
	case FrameworkLMAMM:
		return "LM-AMM"
	case FrameworkDIAMM:
		return "DI-AMM"
	}
	return c.Framework
}

// Spec returns the window specification the config describes.
func (c Config) Spec() window.Spec {
	c = c.normalize()
	if c.Window == WindowTime {
		return window.TimeSpan(c.Size)
	}
	return window.Seq(int(c.Size))
}

// Build validates the config and constructs the sketch it describes.
func (c Config) Build() (core.WindowSketch, error) {
	c = c.normalize()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	spec := c.Spec()
	switch c.Framework {
	case FrameworkSWR:
		if c.Ell == 0 {
			return core.AutoSWR(spec, c.D, c.Eps, c.Seed), nil
		}
		return core.NewSWR(spec, c.Ell, c.D, c.Seed), nil
	case FrameworkSWOR:
		return core.NewSWOR(spec, c.Ell, c.D, c.Seed), nil
	case FrameworkSWORAll:
		return core.NewSWORAll(spec, c.Ell, c.D, c.Seed), nil
	case FrameworkLMFD:
		if c.Ell == 0 {
			return core.AutoLMFDOpts(spec, c.D, c.Eps, c.fdOpts()), nil
		}
		return core.NewLMFDOpts(spec, c.D, c.Ell, c.B, c.fdOpts()), nil
	case FrameworkLMHash:
		return core.NewLMHash(spec, c.D, c.Ell, c.B, uint64(c.Seed)), nil
	case FrameworkDIFD:
		return core.NewDIFDOpts(core.DIConfig{
			N: int(c.Size), R: c.R, L: c.L, Ell: c.Ell, RSlack: 1.01,
		}, c.D, c.fdOpts()), nil
	case FrameworkDSFD:
		if c.Ell == 0 {
			return core.AutoDSFDOpts(int(c.Size), c.D, c.Eps, c.fdOpts()), nil
		}
		return core.NewDSFD(core.DSFDConfig{
			N: int(c.Size), Ell: c.Ell, R: c.R, RSlack: 1.01, FD: c.fdOpts(),
		}, c.D), nil
	case FrameworkLMAMM:
		if c.Ell == 0 {
			return core.AutoAMM(spec, c.D-c.DB, c.DB, c.Eps), nil
		}
		return core.NewLMAMMOpts(spec, c.D-c.DB, c.DB, c.Ell, c.B, c.fdOpts()), nil
	case FrameworkDIAMM:
		return core.NewDIAMMOpts(core.DIConfig{
			N: int(c.Size), R: c.R, L: c.L, Ell: c.Ell, RSlack: 1.01,
		}, c.D-c.DB, c.DB, c.fdOpts()), nil
	}
	return nil, fmt.Errorf("unknown framework %q", c.Framework)
}
