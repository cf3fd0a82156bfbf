// Package bench is the one format of the BENCH_*.json artifacts that
// cmd/swbench and cmd/swload write. An artifact holds an experiment
// name, the stamp of the environment that measured it, the run's
// params, and result rows of string labels and numeric metrics. Write
// is the only code that writes an artifact, Read the only code that
// reads one, and Compare the one baseline comparator.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"swsketch/internal/mat"
)

// Artifact is one BENCH_<experiment>.json document.
type Artifact struct {
	// Experiment names what was measured: the swbench experiment, and
	// the <experiment> in the committed file's name.
	Experiment string `json:"experiment"`
	// Env stamps the environment the numbers were measured in.
	Env Env `json:"env"`
	// Params are the run's fixed inputs, such as the dataset and the
	// window, for the experiments that have any.
	Params map[string]any `json:"params,omitempty"`
	// Results are the measured points.
	Results []Row `json:"results"`
}

// Row is one measured point. Its labels say which point it is (an
// algorithm, a wire mode, a grid coordinate); its metrics say what was
// measured there. A yes/no outcome is a metric of 1 or 0.
type Row struct {
	Labels  map[string]string  `json:"labels"`
	Metrics map[string]float64 `json:"metrics"`
}

// Env is the environment stamp. An artifact converted from an older
// format holds "unrecorded" in every string field it never recorded,
// and null in every other such field.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     *int   `json:"num_cpu"`
	GOMAXPROCS *int   `json:"gomaxprocs"`
	// KernelsAccelerated is mat.KernelsAccelerated(): whether the
	// AVX2+FMA assembly kernels ran. Timings from different backends
	// are not comparable.
	KernelsAccelerated *bool `json:"kernels_accelerated"`
	// Commit is the VCS revision of the build, with "+dirty" when the
	// tree had uncommitted changes, or "unknown" when the build info
	// carries none (go run does not stamp it).
	Commit string `json:"commit"`
}

// New starts an artifact for experiment, stamped with the running
// environment.
func New(experiment string) *Artifact {
	numCPU, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	kernels := mat.KernelsAccelerated()
	return &Artifact{
		Experiment: experiment,
		Env: Env{
			GoVersion:          runtime.Version(),
			GOOS:               runtime.GOOS,
			GOARCH:             runtime.GOARCH,
			CPU:                cpuModel(),
			NumCPU:             &numCPU,
			GOMAXPROCS:         &procs,
			KernelsAccelerated: &kernels,
			Commit:             commit(),
		},
	}
}

// cpuModel is the first processor's model name from /proc/cpuinfo, or
// "unknown" where that file does not name it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the VCS revision from the build info.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// Add appends a result row.
func (a *Artifact) Add(labels map[string]string, metrics map[string]float64) {
	a.Results = append(a.Results, Row{Labels: labels, Metrics: metrics})
}

// Flag is the metric of a yes/no outcome: 1 for yes, 0 for no.
func Flag(yes bool) float64 {
	if yes {
		return 1
	}
	return 0
}

// Find returns the first row carrying every given label, or nil.
func (a *Artifact) Find(labels map[string]string) *Row {
	for i := range a.Results {
		if a.Results[i].has(labels) {
			return &a.Results[i]
		}
	}
	return nil
}

// has reports whether the row carries every given label.
func (r *Row) has(labels map[string]string) bool {
	for k, v := range labels {
		if r.Labels[k] != v {
			return false
		}
	}
	return true
}

// Write encodes a as indented JSON at path.
func Write(path string, a *Artifact) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Read decodes the artifact at path, which must be experiment's. A
// missing file is an error, and so is an unknown field, so a file in
// another format does not decode.
func Read(path, experiment string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var a Artifact
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if a.Experiment != experiment {
		return nil, fmt.Errorf("%s: experiment %q, want %q", path, a.Experiment, experiment)
	}
	return &a, nil
}

// Gate is one baseline comparison. Gates are declared in code, never
// read from the baseline, so editing an artifact cannot change one.
// Every run row carrying the Where labels is paired with the first
// baseline row that carries them too and has the same Pair label; a
// run row without a partner is skipped. The gate fails when the run's
// Metric over the partner's exceeds Max (for a cost) or falls below
// Min (for a rate); a gate sets one of the two.
type Gate struct {
	Metric   string
	Where    map[string]string
	Pair     string
	Max, Min float64
	// SameKernels skips the gate when the baseline ran on another
	// kernel backend, or did not record one.
	SameKernels bool
}

// Compare applies gates to run against base, reporting each
// comparison to w, and fails if any gate does. A nil base compares
// nothing.
func Compare(w io.Writer, run, base *Artifact, gates []Gate) error {
	if base == nil {
		return nil
	}
	var failed []string
	for _, g := range gates {
		if g.SameKernels && !sameKernels(run.Env, base.Env) {
			fmt.Fprintf(w, "gate %s: the baseline ran on another kernel backend, skipped\n", g.Metric)
			continue
		}
		for _, r := range run.Results {
			if !r.has(g.Where) {
				continue
			}
			at := map[string]string{g.Pair: r.Labels[g.Pair]}
			for k, v := range g.Where {
				at[k] = v
			}
			point := g.Pair + "=" + r.Labels[g.Pair]
			b := base.Find(at)
			if b == nil || (g.Min > 0 && b.Metrics[g.Metric] <= 0) {
				// A baseline rate of zero or less has nothing to lose.
				fmt.Fprintf(w, "gate %s %s: no baseline, skipped\n", g.Metric, point)
				continue
			}
			cur, ref := r.Metrics[g.Metric], b.Metrics[g.Metric]
			ratio := cur / ref
			verdict := "ok"
			if (g.Max > 0 && ratio > g.Max) || (g.Min > 0 && ratio < g.Min) {
				verdict = "REGRESSED"
				failed = append(failed, fmt.Sprintf("%s at %s is %.2fx the baseline (limit %gx)",
					g.Metric, point, ratio, g.Max+g.Min)) // the one bound set
			}
			fmt.Fprintf(w, "gate %s %s: %.6g vs baseline %.6g (%.2fx) %s\n", g.Metric, point, cur, ref, ratio, verdict)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("baseline gate: %s", strings.Join(failed, "; "))
	}
	return nil
}

// sameKernels reports whether both stamps recorded the same kernel
// backend.
func sameKernels(a, b Env) bool {
	return a.KernelsAccelerated != nil && b.KernelsAccelerated != nil &&
		*a.KernelsAccelerated == *b.KernelsAccelerated
}
