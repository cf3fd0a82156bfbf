// Package swsketch is a Go implementation of "Matrix Sketching Over
// Sliding Windows" (Wei, Liu, Li, Shang, Du, Wen — SIGMOD 2016): data
// structures that continuously maintain a small approximation B of the
// matrix A formed by the rows inside a sliding window, with bounded
// covariance error ‖AᵀA − BᵀB‖₂/‖A‖²_F.
//
// Three families of sliding-window sketches are provided:
//
//   - Sampling (NewSWR, NewSWOR, NewSWORAll): norm-proportional row
//     samples maintained with priority-sampling candidate queues. Work
//     on sequence- and time-based windows; the answers are rescaled
//     rows of A itself (interpretable).
//   - Logarithmic Method (NewLMFD, NewLMHash): converts a mergeable
//     streaming sketch into a sliding-window sketch via exponentially
//     growing block levels. Works on both window types; the paper's
//     recommended general-purpose choice is LM-FD.
//   - Dyadic Interval (NewDIFD, NewDIRP, NewDIHash): converts an
//     arbitrary streaming sketch into a sequence-window sketch via a
//     dyadic block hierarchy; the most space-efficient option when the
//     squared-norm ratio R of the window is small.
//   - Dump-Snapshot FD (NewDSFD): a follow-up design maintaining one
//     FrequentDirections sketch per frame with truncated prefix
//     snapshots, answering sequence-window queries by subtraction with
//     absolute covariance error within N·R/ℓ.
//   - Windowed AMM (NewLMAMM, NewDIAMM, AutoAMM): sketches over paired
//     streams (aᵢ, bᵢ) answering approximate matrix products AᵀB for
//     the rows inside the window, built by lifting the co-occurring
//     directions co-sketch (NewCOD) through the LM and DI frameworks.
//
// All sketches implement WindowSketch: push timestamped rows with
// Update (for sequence windows, use the stream index as timestamp) and
// obtain the current window's approximation with Query.
//
// This root package is a facade over the implementation packages in
// internal/; it re-exports everything a downstream user needs — the
// sketches, the window specifications, the dense linear algebra used
// to consume the results, the streaming sketches they are built from,
// and generators for the paper's evaluation datasets.
package swsketch

import (
	"io"
	"log/slog"
	"time"

	"swsketch/internal/core"
	"swsketch/internal/data"
	"swsketch/internal/dist"
	"swsketch/internal/mat"
	"swsketch/internal/obs"
	"swsketch/internal/obs/audit"
	"swsketch/internal/pca"
	"swsketch/internal/registry"
	"swsketch/internal/serve"
	"swsketch/internal/stream"
	"swsketch/internal/trace"
	"swsketch/internal/window"
)

// WindowSketch is a continuously maintained matrix sketch over a
// sliding window. See internal/core for the contract details.
type WindowSketch = core.WindowSketch

// Spec describes a sliding window (sequence- or time-based).
type Spec = window.Spec

// Seq returns a sequence-based window of the n most recent rows.
func Seq(n int) Spec { return window.Seq(n) }

// TimeSpan returns a time-based window covering (t−delta, t].
func TimeSpan(delta float64) Spec { return window.TimeSpan(delta) }

// ExactWindow tracks a window exactly (rows, Gram matrix, Frobenius
// mass) — the ground-truth oracle used to measure covariance error.
type ExactWindow = window.Exact

// NewExactWindow returns an exact window tracker for dimension d.
func NewExactWindow(spec Spec, d int) *ExactWindow { return window.NewExact(spec, d) }

// NormTracker approximates the window's ‖A‖²_F; see NewEHNorms for the
// sub-linear exponential-histogram implementation.
type NormTracker = window.NormTracker

// NewEHNorms returns an exponential-histogram Frobenius-mass tracker
// with relative error ≈ eps.
func NewEHNorms(spec Spec, eps float64) NormTracker { return window.NewEHNorms(spec, eps) }

// SWR is the sampling-with-replacement sliding-window sketch
// (Algorithm 5.1 of the paper).
type SWR = core.SWR

// NewSWR returns an SWR sketch sampling ell rows of dimension d.
func NewSWR(spec Spec, ell, d int, seed int64) *SWR { return core.NewSWR(spec, ell, d, seed) }

// SWOR is the sampling-without-replacement sketch (Algorithm 5.2); it
// also implements the SWOR-ALL variant.
type SWOR = core.SWOR

// NewSWOR returns a SWOR sketch sampling ell rows of dimension d.
func NewSWOR(spec Spec, ell, d int, seed int64) *SWOR { return core.NewSWOR(spec, ell, d, seed) }

// NewSWORAll returns the SWOR-ALL variant, which answers with every
// candidate row.
func NewSWORAll(spec Spec, ell, d int, seed int64) *SWOR { return core.NewSWORAll(spec, ell, d, seed) }

// LM is the Logarithmic Method framework (Section 6).
type LM = core.LM

// NewLMFD returns LM over FrequentDirections blocks — the paper's
// LM-FD, its recommended general-purpose sliding-window sketch. ell is
// the per-block sketch size, b the blocks per level (≈ 8/ε).
func NewLMFD(spec Spec, d, ell, b int) *LM { return core.NewLMFD(spec, d, ell, b) }

// NewLMFDOpts returns LM-FD with FastFD ingest tuning applied to every
// block sketch; the zero FDOpts reproduces NewLMFD exactly.
func NewLMFDOpts(spec Spec, d, ell, b int, o FDOpts) *LM {
	return core.NewLMFDOpts(spec, d, ell, b, o)
}

// NewLMHash returns LM over feature-hashing blocks (Appendix A).
func NewLMHash(spec Spec, d, ell, b int, seed uint64) *LM {
	return core.NewLMHash(spec, d, ell, b, seed)
}

// DI is the Dyadic Interval framework (Section 7); sequence windows only.
type DI = core.DI

// DIConfig parameterises the Dyadic Interval framework.
type DIConfig = core.DIConfig

// NewDIFD returns DI over FrequentDirections — the paper's DI-FD, the
// most space-efficient sketch when the norm ratio R is small.
func NewDIFD(cfg DIConfig, d int) *DI { return core.NewDIFD(cfg, d) }

// NewDIFDOpts returns DI-FD with FastFD ingest tuning applied to every
// per-level sketch; the zero FDOpts reproduces NewDIFD exactly.
func NewDIFDOpts(cfg DIConfig, d int, o FDOpts) *DI { return core.NewDIFDOpts(cfg, d, o) }

// NewDIRP returns DI over random projections (Appendix A).
func NewDIRP(cfg DIConfig, d int, seed int64) *DI { return core.NewDIRP(cfg, d, seed) }

// NewDIHash returns DI over feature hashing (Appendix A).
func NewDIHash(cfg DIConfig, d int, seed uint64) *DI { return core.NewDIHash(cfg, d, seed) }

// DSFD is the dump-snapshot FrequentDirections sliding-window sketch
// (after "DS-FD: Matrix Sketching over Sliding Windows with Dump
// Snapshots"): one FrequentDirections sketch per frame, frozen when
// its accumulated shrink mass reaches half the error threshold
// θ = N·R/ℓ, with periodic truncated snapshots inside the active
// frame so a window cutoff mid-frame can be answered by subtraction.
// Sequence windows only; deterministic, so batch ingest and
// spill/restore are bit-exact.
type DSFD = core.DSFD

// DSFDConfig parameterises DS-FD: window length N, sketch size Ell,
// and an optional squared-row-norm bound R (zero = track adaptively).
type DSFDConfig = core.DSFDConfig

// NewDSFD returns a DS-FD sketch for rows of dimension d.
func NewDSFD(cfg DSFDConfig, d int) *DSFD { return core.NewDSFD(cfg, d) }

// COD is the co-occurring directions streaming co-sketch: aligned
// buffers X and Y maintained so that XᵀY ≈ AᵀB for a paired stream of
// row pairs (aᵢ, bᵢ), with certified spectral error ‖AᵀB − XᵀY‖₂
// bounded by the accumulated shrink charge (Delta). Mergeable, so it
// slots into the LM and DI frameworks as the block sketch behind the
// windowed AMM sketches below.
type COD = stream.COD

// NewCOD returns a COD co-sketch of at most ell row pairs with side
// widths dA and dB.
func NewCOD(ell, dA, dB int) *COD { return stream.NewCOD(ell, dA, dB) }

// NewCODOpts returns a COD co-sketch with FastFD ingest tuning; the
// zero FDOpts reproduces NewCOD exactly.
func NewCODOpts(ell, dA, dB int, o FDOpts) *COD { return stream.NewCODOpts(ell, dA, dB, o) }

// PairedWindowSketch is a sliding-window sketch over a paired stream
// (aᵢ, bᵢ): alongside the WindowSketch contract it answers windowed
// approximate matrix products AᵀB via AmmApproximation.
type PairedWindowSketch = core.PairedWindowSketch

// AMM is the windowed approximate-matrix-multiplication sketch: an LM
// or DI framework instance over COD co-sketch blocks, answering
// AᵀB ≈ XᵀY for the row pairs inside the sliding window.
type AMM = core.AMM

// NewLMAMM returns the Logarithmic Method over COD blocks — windowed
// AMM on sequence or time windows. ell is the per-block co-sketch
// size, b the blocks per level.
func NewLMAMM(spec Spec, dA, dB, ell, b int) *AMM { return core.NewLMAMM(spec, dA, dB, ell, b) }

// NewLMAMMOpts returns LM-AMM with FastFD ingest tuning applied to
// every COD block; the zero FDOpts reproduces NewLMAMM exactly.
func NewLMAMMOpts(spec Spec, dA, dB, ell, b int, o FDOpts) *AMM {
	return core.NewLMAMMOpts(spec, dA, dB, ell, b, o)
}

// NewDIAMM returns the Dyadic Interval framework over COD blocks —
// the space-efficient windowed AMM choice for sequence windows with a
// small norm ratio R.
func NewDIAMM(cfg DIConfig, dA, dB int) *AMM { return core.NewDIAMM(cfg, dA, dB) }

// NewDIAMMOpts returns DI-AMM with FastFD ingest tuning.
func NewDIAMMOpts(cfg DIConfig, dA, dB int, o FDOpts) *AMM {
	return core.NewDIAMMOpts(cfg, dA, dB, o)
}

// AutoAMM sizes an LM-AMM sketch for a target correlation error
// ‖AᵀB − XᵀY‖₂/(‖A‖_F·‖B‖_F) ≈ eps.
func AutoAMM(spec Spec, dA, dB int, eps float64) *AMM {
	return core.AutoAMM(spec, dA, dB, eps, FDOpts{})
}

// Best is the offline best-rank-k baseline (stores the window; not a
// sketch — provided as the error lower envelope).
type Best = core.Best

// NewBest returns the offline rank-k baseline.
func NewBest(spec Spec, k, d int) *Best { return core.NewBest(spec, k, d) }

// Concurrent wraps any WindowSketch for one-writer/many-reader use.
type Concurrent = core.Concurrent

// NewConcurrent wraps sk with a mutex.
func NewConcurrent(sk WindowSketch) *Concurrent { return core.NewConcurrent(sk) }

// Dense is the row-major dense matrix type used throughout.
type Dense = mat.Dense

// NewDense returns a zeroed r×c matrix.
func NewDense(r, c int) *Dense { return mat.NewDense(r, c) }

// FromRows builds a matrix from row slices (copied).
func FromRows(rows [][]float64) *Dense { return mat.FromRows(rows) }

// SVDResult holds a thin singular value decomposition.
type SVDResult = mat.SVDResult

// SVD computes a thin SVD via the Gram trick.
func SVD(a *Dense) SVDResult { return mat.SVD(a) }

// SingularValues returns the singular values of a in descending order.
func SingularValues(a *Dense) []float64 { return mat.SingularValues(a) }

// RankK returns the best rank-k approximation Σ_k·V_kᵀ of a.
func RankK(a *Dense, k int) *Dense { return mat.RankK(a, k) }

// CovarianceError returns ‖AᵀA − BᵀB‖₂/‖A‖²_F given A's Gram matrix
// and squared Frobenius mass.
func CovarianceError(gramA *Dense, froSqA float64, b *Dense) float64 {
	return mat.CovarianceError(gramA, froSqA, b)
}

// FD is the FrequentDirections streaming sketch (mergeable).
type FD = stream.FD

// NewFD returns a FrequentDirections sketch of at most ell rows.
func NewFD(ell, d int) *FD { return stream.NewFD(ell, d) }

// FDOpts configures the FastFD ingest hot path: Buffer widens the
// working buffer to b·ℓ rows so shrinks amortize (2 is the benchmarked
// recommendation), Alpha ∈ (0,1] tunes how deep each shrink cuts
// (1 = the classic halving). The zero value is the classic cadence;
// the covariance guarantee holds for every valid combination.
type FDOpts = stream.FDOpts

// NewFDOpts returns a FrequentDirections sketch with FastFD tuning.
func NewFDOpts(ell, d int, o FDOpts) *FD { return stream.NewFDOpts(ell, d, o) }

// StreamSketch is a streaming (unbounded) matrix sketch.
type StreamSketch = stream.Sketch

// Mergeable is a streaming sketch supporting error- and size-
// preserving merges (the LM framework's requirement).
type Mergeable = stream.Mergeable

// Dataset is a materialised row stream with timestamps.
type Dataset = data.Dataset

// Dataset generators reproducing the paper's evaluation data; see
// internal/data for the configuration details.
type (
	// SyntheticConfig parameterises the Appendix D random noisy matrix.
	SyntheticConfig = data.SyntheticConfig
	// BIBDConfig parameterises the constant-norm incidence stream.
	BIBDConfig = data.BIBDConfig
	// PAMAPConfig parameterises the heavy-tailed sensor stream.
	PAMAPConfig = data.PAMAPConfig
	// WikiConfig parameterises the bursty tf-idf document stream.
	WikiConfig = data.WikiConfig
	// RailConfig parameterises the Poisson-arrival cost stream.
	RailConfig = data.RailConfig
)

// Synthetic generates the Appendix D matrix A = SDU + N/ζ.
func Synthetic(cfg SyntheticConfig) *Dataset { return data.Synthetic(cfg) }

// BIBD generates a balanced-incomplete-block-design incidence stream.
func BIBD(cfg BIBDConfig) *Dataset { return data.BIBD(cfg) }

// PAMAP generates an activity-monitoring-like sensor stream.
func PAMAP(cfg PAMAPConfig) *Dataset { return data.PAMAP(cfg) }

// Wiki generates a tf-idf document stream with accelerating arrivals.
func Wiki(cfg WikiConfig) *Dataset { return data.Wiki(cfg) }

// Rail generates a sparse cost stream with Poisson arrivals.
func Rail(cfg RailConfig) *Dataset { return data.Rail(cfg) }

// PCA is the principal component analysis of a window approximation.
type PCA = pca.Result

// ComputePCA returns the top-k principal components of the
// approximation b; because the sketch bounds the covariance error,
// these approximate the window's true PCA (the paper's Section 1
// application).
func ComputePCA(b *Dense, k int) PCA { return pca.Compute(b, k) }

// ResidualEnergy returns the fraction of b's energy outside the
// subspace of the given PCA basis — the change-detection statistic.
func ResidualEnergy(b *Dense, basis PCA) float64 { return pca.ResidualEnergy(b, basis) }

// SubspaceDistance returns sin of the largest principal angle between
// two PCA bases.
func SubspaceDistance(a, b PCA) float64 { return pca.SubspaceDistance(a, b) }

// ChangeDetector implements reference-vs-test-window PCA change
// detection over sliding-window sketches.
type ChangeDetector = pca.Detector

// NewChangeDetector fixes a reference basis with k components; Test
// flags approximations whose residual energy exceeds threshold.
func NewChangeDetector(reference *Dense, k int, threshold float64) *ChangeDetector {
	return pca.NewDetector(reference, k, threshold)
}

// Unbounded adapts a streaming (whole-history) sketch to the
// WindowSketch interface — the baseline that motivates sliding
// windows: it cannot forget old regimes (see `swbench drift`).
type Unbounded = core.Unbounded

// NewUnboundedFD wraps a whole-history FrequentDirections sketch.
func NewUnboundedFD(ell, d int) *Unbounded { return core.NewUnboundedFD(ell, d) }

// NewUnboundedFDOpts wraps a whole-history FrequentDirections sketch
// with FastFD ingest tuning.
func NewUnboundedFDOpts(ell, d int, o FDOpts) *Unbounded {
	return core.NewUnboundedFDOpts(ell, d, o)
}

// Zero is the degenerate always-empty baseline (covariance error
// σ₁²/Σσᵢ²); any useful sketch must beat it.
type Zero = core.Zero

// NewZero returns the zero-answer baseline.
func NewZero(d int) *Zero { return core.NewZero(d) }

// NewLMRP returns LM over random-projection blocks (an extension: RP
// is mergeable by addition, though the paper only pairs it with DI).
func NewLMRP(spec Spec, d, ell, b int, seed int64) *LM {
	return core.NewLMRP(spec, d, ell, b, seed)
}

// SparseRow is a sparse vector (sorted indices + values) for O(nnz)
// ingest of high-dimensional sparse streams.
type SparseRow = mat.SparseRow

// NewSparseRow validates and wraps explicit indices and values (pass
// d ≤ 0 to skip the bound check).
func NewSparseRow(idx []int, val []float64, d int) SparseRow {
	return mat.NewSparseRow(idx, val, d)
}

// SparseFromDense extracts the non-zero entries of a dense row.
func SparseFromDense(row []float64) SparseRow { return mat.SparseFromDense(row) }

// SparseUpdater is a window sketch with a sparse ingest path
// (implemented by SWR, SWOR, LM, and DI).
type SparseUpdater = core.SparseUpdater

// ReadMatrixMarket loads a MatrixMarket coordinate file (the UFlorida
// collection format of the paper's BIBD and RAIL matrices) as a row
// stream.
func ReadMatrixMarket(name string, r io.Reader) (*Dataset, error) {
	return data.ReadMatrixMarket(name, r)
}

// ReadPAMAP loads the PAMAP .dat sensor format with the paper's
// preprocessing (drop timestamp/activity columns and any column with
// missing values).
func ReadPAMAP(name string, r io.Reader) (*Dataset, error) {
	return data.ReadPAMAP(name, r)
}

// ReadCSV loads a timestamp-prefixed CSV row stream (the format
// written by Dataset.WriteCSV).
func ReadCSV(name string, r io.Reader) (*Dataset, error) {
	return data.ReadCSV(name, r)
}

// Server exposes tenant sketches over HTTP (ingest, approximation,
// PCA, stats, snapshot, and optional metrics/pprof endpoints); see
// cmd/swserve for a ready binary and internal/serve for the route and
// error-envelope documentation.
type Server = serve.Server

// ServerOption configures a Server (WithMetrics, WithPprof,
// WithMaxBody, WithTrace, WithAudit, WithLogger).
type ServerOption = serve.Option

// NewServer builds a server whose "default" tenant is the sketch cfg
// describes, or returns the config's error; mount Handler() on any
// mux.
func NewServer(cfg TenantConfig, opts ...ServerOption) (*Server, error) {
	return serve.NewServer(cfg, opts...)
}

// WithMetrics instruments the server's sketch and routes into reg and
// mounts GET /metrics with the Prometheus text exposition.
func WithMetrics(reg *MetricsRegistry) ServerOption { return serve.WithMetrics(reg) }

// WithPprof mounts net/http/pprof under /debug/pprof/.
func WithPprof() ServerOption { return serve.WithPprof() }

// WithMaxBody caps request body sizes at n bytes (413 beyond it).
func WithMaxBody(n int64) ServerOption { return serve.WithMaxBody(n) }

// WithTrace attaches an event tracer to the server: the sketch's
// structural transitions and every request record into it, and GET
// /debug/trace serves the ring as JSONL.
func WithTrace(tr *Tracer) ServerOption { return serve.WithTrace(tr) }

// WithAudit attaches an online accuracy auditor: ingested rows are
// shadowed by an exact window and GET /v2/health reports ok/degraded
// against the audited cova-err.
func WithAudit(a *Auditor) ServerOption { return serve.WithAudit(a) }

// WithLogger enables structured per-request logging (default silent);
// each record carries the request ID that also tags trace events.
func WithLogger(l *slog.Logger) ServerOption { return serve.WithLogger(l) }

// Tracer is a lock-cheap ring buffer of structural sketch events
// (block merges, retires, shrinks, evictions, snapshots): attach one
// to any sketch via SetTracer and see inside its maintenance machinery
// as it runs. Zero overhead beyond an atomic load while disabled.
type Tracer = trace.Tracer

// TraceEvent is one recorded structural event.
type TraceEvent = trace.Event

// TraceSummary is the tracer's aggregate view: per-kind counts and
// last-assigned event IDs plus ring occupancy.
type TraceSummary = trace.Summary

// Traceable is implemented by every sketch in this package: SetTracer
// attaches (or detaches, with nil) a structural event tracer.
type Traceable = trace.Traceable

// NewTracer returns a disabled tracer with the given ring capacity
// (minimum 16); call Enable to start recording.
func NewTracer(capacity int) *Tracer { return trace.New(capacity) }

// Auditor measures a serving sketch's covariance error online against
// a budgeted exact shadow window — the paper's accuracy contract as
// live telemetry.
type Auditor = audit.Auditor

// AuditConfig parameterises an Auditor (window spec, dimension,
// evaluation stride, shadow row cap, degradation threshold).
type AuditConfig = audit.Config

// AuditResult is one audit evaluation's outcome (cova-err, observed
// norm ratio, drift).
type AuditResult = audit.Result

// AuditStatus is the auditor's health view (served by GET /v2/health).
type AuditStatus = audit.Status

// NewAuditor returns an armed auditor publishing its gauges into reg
// (nil for a private throwaway registry).
func NewAuditor(cfg AuditConfig, reg *MetricsRegistry) *Auditor { return audit.New(cfg, reg) }

// RegisterRuntimeMetrics adds Go runtime and process self-metrics
// (goroutines, heap, GC, uptime, build info) to reg.
func RegisterRuntimeMetrics(reg *MetricsRegistry) { obs.RegisterRuntimeMetrics(reg) }

// RegisterTracer bridges a tracer's per-kind counts and exemplar event
// IDs into reg as scrape-time gauges.
func RegisterTracer(reg *MetricsRegistry, tr *Tracer) { obs.RegisterTracer(reg, tr) }

// MetricsRegistry is a low-overhead metrics registry (counters,
// gauges, histograms) with a hand-rolled Prometheus text exposition —
// no external dependencies.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// SketchMetrics is one algorithm's ingest and query instruments in a
// registry, under the metric names the server's WithMetrics records
// every tenant's: read Start before an UpdateBatch or Query, then
// record the call with ObserveBatch or ObserveQuery. A nil set
// records nothing and reads no clock.
type SketchMetrics = obs.SketchMetrics

// NewSketchMetrics returns algo's instrument set in reg, registering
// it on first use.
func NewSketchMetrics(reg *MetricsRegistry, algo string) *SketchMetrics {
	return obs.NewSketchMetrics(reg, algo)
}

// Introspector is implemented by sketches that expose internal
// statistics (queue depths, block occupancy, shrink counts, ...) as a
// flat name→value map; every sketch in this package implements it.
type Introspector = core.Introspector

// ProjectionError returns the relative rank-k projection error of b
// against a — the second standard sketch-quality measure.
func ProjectionError(a, b *Dense, k int) float64 { return mat.ProjectionError(a, b, k) }

// DistSite is one node of the distributed-monitoring extension: it
// observes a local sub-stream and ships block sketches (never raw
// rows) to a coordinator.
type DistSite = dist.Site

// DistBlock is the sketch unit shipped from a site to the coordinator.
type DistBlock = dist.Block

// DistCoordinator answers global-window queries from site blocks.
type DistCoordinator = dist.Coordinator

// NewDistSite returns a site shipping FD block sketches of ℓ rows once
// the local block's squared-norm mass exceeds blockMass.
func NewDistSite(id, d, ell int, blockMass float64, ship func(DistBlock)) *DistSite {
	return dist.NewSite(id, d, ell, blockMass, ship)
}

// NewDistCoordinator returns the coordinator for the given window.
func NewDistCoordinator(spec Spec, d, ell, perLevel int, blockMass float64) *DistCoordinator {
	return dist.NewCoordinator(spec, d, ell, perLevel, blockMass)
}

// AutoLMFD sizes an LM-FD sketch for a target covariance error using
// the practical calibration from the reproduction harness (the
// theoretical constants are far looser; see EXPERIMENTS.md).
func AutoLMFD(spec Spec, d int, eps float64) *LM { return core.AutoLMFD(spec, d, eps) }

// AutoDIFD sizes a DI-FD sketch for a target error over a sequence
// window of n rows with the given norm profile.
func AutoDIFD(n, d int, eps, maxSqNorm, ratio float64) *DI {
	return core.AutoDIFD(n, d, eps, maxSqNorm, ratio)
}

// AutoSWR sizes an SWR sampler for a target error.
func AutoSWR(spec Spec, d int, eps float64, seed int64) *SWR {
	return core.AutoSWR(spec, d, eps, seed)
}

// AutoDSFD sizes a DS-FD sketch for a target error over a sequence
// window of n rows, tracking the norm bound adaptively.
func AutoDSFD(n, d int, eps float64) *DSFD { return core.AutoDSFD(n, d, eps) }

// TenantRegistry is a sharded, concurrency-safe collection of named
// sliding-window sketches ("tenants"), each created from a declarative
// TenantConfig — the multi-tenant serving substrate mounted by the
// HTTP server under /v2/tenants/. Supports idle eviction with
// snapshot-to-disk spill and transparent restore; see internal/registry
// for the design notes.
type TenantRegistry = registry.Registry

// TenantConfig declares one tenant's sketch: framework, window kind
// and size, dimension, and sizing knobs (explicit ℓ or a target ε).
type TenantConfig = registry.Config

// Tenant is one named sketch inside a TenantRegistry; all sketch
// access goes through its Acquire/Release mutex.
type Tenant = registry.Tenant

// TenantInfo is one tenant's lock-free summary (ID, algorithm,
// residency, row count, update count).
type TenantInfo = registry.Info

// RegistryOption configures a TenantRegistry (WithMaxTenants,
// WithEvictTTL, WithSpillDir, WithTenantMetrics, WithTenantTrace).
type RegistryOption = registry.Option

// NewTenantRegistry builds a tenant registry; the only fallible option
// is WithSpillDir (directory creation plus the startup scan that
// lazily resumes previously spilled tenants).
func NewTenantRegistry(opts ...RegistryOption) (*TenantRegistry, error) {
	return registry.New(opts...)
}

// WithMaxTenants caps resident tenants; a create into a full registry
// LRU-evicts an idle tenant first (spill or drop).
func WithMaxTenants(n int) RegistryOption { return registry.WithMaxTenants(n) }

// WithEvictTTL marks tenants idle longer than ttl evictable by
// TenantRegistry.Sweep (run Sweep on a ticker; the registry starts no
// goroutines itself).
func WithEvictTTL(ttl time.Duration) RegistryOption { return registry.WithEvictTTL(ttl) }

// WithSpillDir preserves evicted tenants on disk: snapshot-capable
// sketches spill to dir and restore transparently on next touch.
func WithSpillDir(dir string) RegistryOption { return registry.WithSpillDir(dir) }

// WithTenantMetrics publishes tenant-lifecycle counters and residency
// gauges into reg.
func WithTenantMetrics(reg *MetricsRegistry) RegistryOption { return registry.WithObs(reg) }

// WithTenantTrace emits tenant lifecycle events (create, evict,
// restore, delete) into tr.
func WithTenantTrace(tr *Tracer) RegistryOption { return registry.WithTrace(tr) }

// WithRegistryClock overrides the registry's time source for recency
// stamps and TTL decisions — deterministic eviction in tests and
// demos (see examples/multitenant).
func WithRegistryClock(now func() time.Time) RegistryOption { return registry.WithClock(now) }

// WithRegistry mounts a caller-built tenant registry on a Server
// instead of the plain one it otherwise creates; the server creates
// its pinned "default" tenant in it.
func WithRegistry(reg *TenantRegistry) ServerOption { return serve.WithRegistry(reg) }
