package swsketch_test

import (
	"fmt"
	"strings"

	"swsketch"
)

// ExampleNewLMFD maintains the paper's recommended sliding-window
// sketch over a sequence window and inspects the answer's shape.
func ExampleNewLMFD() {
	const d = 4
	sketch := swsketch.NewLMFD(swsketch.Seq(100), d, 8, 4)
	for i := 0; i < 500; i++ {
		row := make([]float64, d)
		row[i%d] = 1 // deterministic toy stream
		sketch.Update(row, float64(i))
	}
	b := sketch.Query(499)
	fmt.Println("columns:", b.Cols())
	fmt.Println("rows within sketch budget:", b.Rows() <= 8)
	// Output:
	// columns: 4
	// rows within sketch budget: true
}

// ExampleNewSWR shows the interpretable sampling sketch: the answer
// rows are rescaled rows of the window itself.
func ExampleNewSWR() {
	sketch := swsketch.NewSWR(swsketch.Seq(50), 4, 2, 1)
	for i := 0; i < 200; i++ {
		sketch.Update([]float64{1, 2}, float64(i))
	}
	b := sketch.Query(199)
	// Every sampled row is a rescaling of (1, 2): the ratio survives.
	fmt.Println("samples:", b.Rows())
	fmt.Printf("direction preserved: %.1f\n", b.At(0, 1)/b.At(0, 0))
	// Output:
	// samples: 4
	// direction preserved: 2.0
}

// ExampleNewDIFD runs the Dyadic Interval sketch on unit-norm rows
// (R = 1), its best regime.
func ExampleNewDIFD() {
	cfg := swsketch.DIConfig{N: 64, R: 1, L: 4, Ell: 16}
	sketch := swsketch.NewDIFD(cfg, 2)
	for i := 0; i < 300; i++ {
		sketch.Update([]float64{1, 0}, float64(i))
	}
	b := sketch.Query(299)
	fmt.Println("sequence-window answer columns:", b.Cols())
	// Output:
	// sequence-window answer columns: 2
}

// ExampleComputePCA extracts approximate window PCA from a sketch
// answer.
func ExampleComputePCA() {
	sketch := swsketch.NewLMFD(swsketch.Seq(200), 3, 8, 4)
	for i := 0; i < 400; i++ {
		// Energy concentrated on the middle coordinate.
		sketch.Update([]float64{0.01, 5, 0.01}, float64(i))
	}
	p := swsketch.ComputePCA(sketch.Query(399), 1)
	fmt.Printf("dominant direction explains %.0f%% of energy\n", 100*p.Explained[0])
	// Output:
	// dominant direction explains 100% of energy
}

// ExampleNewChangeDetector flags a distribution shift between a
// reference window and the tracked test window.
func ExampleNewChangeDetector() {
	ref := swsketch.FromRows([][]float64{{3, 0}, {4, 0}, {5, 0}})
	det := swsketch.NewChangeDetector(ref, 1, 0.2)

	same := swsketch.FromRows([][]float64{{6, 0}})
	_, changed := det.Test(same)
	fmt.Println("same distribution flagged:", changed)

	shifted := swsketch.FromRows([][]float64{{0, 6}})
	_, changed = det.Test(shifted)
	fmt.Println("shifted distribution flagged:", changed)
	// Output:
	// same distribution flagged: false
	// shifted distribution flagged: true
}

// ExampleAutoLMFD sizes a sketch from a target error instead of raw
// knobs.
func ExampleAutoLMFD() {
	sketch := swsketch.AutoLMFD(swsketch.Seq(1000), 8, 0.05)
	sketch.Update(make([]float64, 8), 0)
	fmt.Println("configured:", sketch.Name())
	// Output:
	// configured: LM-FD
}

// ExampleDI_QueryRange queries an arbitrary sub-interval of the
// window — a capability unique to the Dyadic Interval sketch.
func ExampleDI_QueryRange() {
	cfg := swsketch.DIConfig{N: 64, R: 1, L: 4, Ell: 32}
	sketch := swsketch.NewDIFD(cfg, 2)
	for i := 0; i < 64; i++ {
		sketch.Update([]float64{1, 0}, float64(i))
	}
	sub := sketch.QueryRange(31, 47) // rows 32..47 only
	full := sketch.Query(63)
	fmt.Println("sub-range mass is a fraction of the window:",
		sub.FrobeniusSq() < full.FrobeniusSq())
	// Output:
	// sub-range mass is a fraction of the window: true
}

// ExampleNewDistSite wires one site to a coordinator: rows stay local,
// sketches travel.
func ExampleNewDistSite() {
	coord := swsketch.NewDistCoordinator(swsketch.Seq(100), 2, 8, 4, 10)
	site := swsketch.NewDistSite(0, 2, 4, 10, coord.Receive)
	for i := 0; i < 40; i++ {
		site.Observe([]float64{1, 1}, float64(i))
	}
	site.Flush()
	fmt.Println("rows observed:", site.RowsObserved())
	fmt.Println("sketch rows shipped fewer:", site.RowsShipped() < site.RowsObserved())
	fmt.Println("coordinator answers:", coord.Query(39).Cols())
	// Output:
	// rows observed: 40
	// sketch rows shipped fewer: true
	// coordinator answers: 2
}

// ExampleReadMatrixMarket loads a UFlorida-collection matrix (the
// format of the paper's BIBD and RAIL datasets).
func ExampleReadMatrixMarket() {
	mm := "%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 1\n2 3\n"
	ds, err := swsketch.ReadMatrixMarket("bibd", strings.NewReader(mm))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%d rows × %d cols\n", ds.N(), ds.D())
	// Output:
	// 2 rows × 3 cols
}

// ExampleNewTenantRegistry hosts several independent sliding windows
// in one process: tenants are declared by config, ingested separately,
// and answer their own windows (see examples/multitenant for the full
// demo with eviction and restore).
func ExampleNewTenantRegistry() {
	reg, err := swsketch.NewTenantRegistry()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cfg := swsketch.TenantConfig{
		Framework: "lm-fd", Window: "sequence", Size: 50, D: 3, Ell: 8, B: 4,
	}
	for _, id := range []string{"alpha", "beta"} {
		if _, err := reg.Create(id, cfg); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	alpha, _ := reg.Get("alpha")
	if err := alpha.Acquire(); err != nil {
		fmt.Println("error:", err)
		return
	}
	for i := 0; i < 100; i++ {
		alpha.Sketch().Update([]float64{1, 0, 1}, float64(i))
	}
	alpha.Commit(100)
	alpha.Release()

	fmt.Println("tenants:", reg.Len())
	for _, info := range reg.List() {
		fmt.Printf("%s: %s, %d updates\n", info.ID, info.Algorithm, info.Updates)
	}
	// Output:
	// tenants: 2
	// alpha: LM-FD, 100 updates
	// beta: LM-FD, 0 updates
}
