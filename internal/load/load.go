// Package load drives synthetic multi-tenant ingest traffic against a
// running swsketch server and measures it. One driver serves both the
// swload CLI and the swbench "load" experiment: it provisions a tenant
// fleet over the API, fans blocks of rows out from concurrent workers
// with Zipf-skewed tenant selection (a few hot tenants, a long cold
// tail — the shape real multi-tenant ingest has), and reports rows/s
// plus p50/p99 per-block latency.
//
// Three wire modes cover the ingest plane:
//
//	rows    one JSON POST per block (/v2/tenants/{id}/rows) — the
//	        request-per-batch baseline
//	ndjson  the /v2 stream in NDJSON framing, blocks separated by
//	        blank lines, one connection per worker-tenant lease
//	frames  the /v2 stream in binenc binary framing
//
// Latency is measured per block: POST round trip in rows mode,
// write-to-ack in the stream modes. Record turns each run into a row
// of the BENCH_load.json artifact.
package load

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"swsketch/internal/bench"
	"swsketch/internal/binenc"
)

// Modes recognised by Config.Mode.
const (
	ModeRows   = "rows"
	ModeNDJSON = "ndjson"
	ModeFrames = "frames"
)

// Config describes one load run.
type Config struct {
	// BaseURL is the target server's root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Mode is one of ModeRows, ModeNDJSON, ModeFrames.
	Mode string
	// Tenants is the fleet size; tenants are created as load-0000...
	// before traffic starts (already-existing ones are reused).
	Tenants int
	// D is the row dimension of the provisioned tenants.
	D int
	// Window is the provisioned tenants' sequence-window size.
	Window int
	// Rows is the total row budget across all workers.
	Rows int
	// Batch is the rows per block (one ack / one request per block).
	Batch int
	// Workers is the number of concurrent connections.
	Workers int
	// ZipfS is the tenant-selection skew (>1; e.g. 1.2); 0 or values
	// ≤ 1 select uniformly.
	ZipfS float64
	// Seed seeds row data and tenant selection.
	Seed int64
	// StreamBlocks is how many blocks a stream mode sends per
	// connection before re-leasing a tenant (default 8).
	StreamBlocks int
	// Client overrides the HTTP client (defaults to one with sane
	// connection pooling for Workers connections).
	Client *http.Client
	// TrackTenants records exact accepted-row counts per tenant in
	// Result.TenantRows — the ground truth the hot-key observability
	// experiment compares the server's count-min estimates against.
	TrackTenants bool
}

// Result is one load run's measurement.
type Result struct {
	Mode       string
	Tenants    int
	Workers    int
	Batch      int
	Rows       int
	Blocks     int
	Errors     int
	Seconds    float64
	RowsPerSec float64
	P50Ms      float64
	P99Ms      float64
	// TenantRows is the exact accepted-row count per tenant ID, filled
	// only when Config.TrackTenants is set.
	TenantRows map[string]int
}

// Record adds res to art as one row of the load artifact, labelled by
// its mode and shape. A stream mode that runs after the per-request
// rows mode also gets speedup_vs_rows, its rows/s over that mode's;
// Record returns that speedup, or 0 when there is none.
func Record(art *bench.Artifact, res Result) float64 {
	m := map[string]float64{
		"rows":         float64(res.Rows),
		"blocks":       float64(res.Blocks),
		"errors":       float64(res.Errors),
		"seconds":      res.Seconds,
		"rows_per_sec": res.RowsPerSec,
		"p50_ms":       res.P50Ms,
		"p99_ms":       res.P99Ms,
	}
	speedup := 0.0
	if base := art.Find(map[string]string{"mode": ModeRows}); base != nil && res.Mode != ModeRows &&
		base.Metrics["rows_per_sec"] > 0 {
		speedup = res.RowsPerSec / base.Metrics["rows_per_sec"]
		m["speedup_vs_rows"] = speedup
	}
	art.Add(map[string]string{
		"mode":    res.Mode,
		"tenants": fmt.Sprint(res.Tenants),
		"workers": fmt.Sprint(res.Workers),
		"batch":   fmt.Sprint(res.Batch),
	}, m)
	return speedup
}

// driver is the shared run state.
type driver struct {
	cfg    Config
	client *http.Client
	ids    []string
	// Per-tenant serialisation: ingest timestamps must be monotonic per
	// tenant, so a worker leases a tenant exclusively while writing to
	// it (hot Zipf tenants serialise — the contention is the point).
	locks  []sync.Mutex
	clocks []int64 // next timestamp per tenant; guarded by locks
	rows   [][]float64

	mu         sync.Mutex
	lat        []float64 // per-block latency, ms
	errs       int
	sent       int
	tenantRows map[string]int // accepted rows per tenant; nil unless tracking
}

// Run provisions the fleet and drives one measured load run.
func Run(cfg Config) (Result, error) {
	if cfg.Tenants < 1 || cfg.Rows < 1 || cfg.D < 1 {
		return Result{}, fmt.Errorf("load: tenants=%d rows=%d d=%d", cfg.Tenants, cfg.Rows, cfg.D)
	}
	if cfg.Batch < 1 {
		cfg.Batch = 64
	}
	if cfg.Workers < 1 {
		cfg.Workers = 4
	}
	if cfg.Window < 1 {
		cfg.Window = 4 * cfg.Batch
	}
	if cfg.StreamBlocks < 1 {
		cfg.StreamBlocks = 8
	}
	switch cfg.Mode {
	case ModeRows, ModeNDJSON, ModeFrames:
	default:
		return Result{}, fmt.Errorf("load: unknown mode %q", cfg.Mode)
	}
	dr := &driver{cfg: cfg, client: cfg.Client}
	if cfg.TrackTenants {
		dr.tenantRows = make(map[string]int, cfg.Tenants)
	}
	if dr.client == nil {
		dr.client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        cfg.Workers * 2,
			MaxIdleConnsPerHost: cfg.Workers * 2,
		}}
	}
	if err := dr.provision(); err != nil {
		return Result{}, err
	}
	dr.genRows()

	blocks := cfg.Rows / cfg.Batch
	if blocks < 1 {
		blocks = 1
	}
	work := make(chan int, blocks)
	for i := 0; i < blocks; i++ {
		work <- i
	}
	close(work)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dr.worker(w, work)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := Result{
		Mode: cfg.Mode, Tenants: cfg.Tenants, Workers: cfg.Workers,
		Batch: cfg.Batch, Rows: dr.sent, Blocks: len(dr.lat), Errors: dr.errs,
		Seconds: elapsed, RowsPerSec: float64(dr.sent) / elapsed,
	}
	res.P50Ms, res.P99Ms = percentiles(dr.lat)
	res.TenantRows = dr.tenantRows
	return res, nil
}

// tenantID names fleet member i.
func tenantID(i int) string { return fmt.Sprintf("load-%04d", i) }

// provision creates the fleet over PUT /v2/tenants/{id}; an existing
// tenant (409) is reused.
func (d *driver) provision() error {
	d.ids = make([]string, d.cfg.Tenants)
	d.locks = make([]sync.Mutex, d.cfg.Tenants)
	d.clocks = make([]int64, d.cfg.Tenants)
	cfgJSON := fmt.Sprintf(
		`{"framework":"lm-fd","window":"sequence","size":%d,"d":%d,"ell":8,"b":4}`,
		d.cfg.Window, d.cfg.D)
	type job struct{ i int }
	jobs := make(chan job, d.cfg.Tenants)
	for i := range d.ids {
		d.ids[i] = tenantID(i)
		jobs <- job{i}
	}
	close(jobs)
	workers := d.cfg.Workers
	if workers > 16 {
		workers = 16
	}
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				req, err := http.NewRequest("PUT",
					d.cfg.BaseURL+"/v2/tenants/"+d.ids[j.i], strings.NewReader(cfgJSON))
				if err != nil {
					errc <- err
					return
				}
				resp, err := d.client.Do(req)
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated &&
					resp.StatusCode != http.StatusConflict {
					errc <- fmt.Errorf("load: create %s: status %d", d.ids[j.i], resp.StatusCode)
					return
				}
				// A reused tenant (from an earlier run against the same
				// server) has an advanced ingest clock; start past it so
				// fresh timestamps stay monotonic.
				sresp, err := d.client.Get(d.cfg.BaseURL + "/v2/tenants/" + d.ids[j.i] + "/stats")
				if err != nil {
					errc <- err
					return
				}
				var st struct {
					LastT float64 `json:"last_t"`
				}
				jerr := json.NewDecoder(sresp.Body).Decode(&st)
				sresp.Body.Close()
				if jerr != nil {
					errc <- fmt.Errorf("load: stats %s: %w", d.ids[j.i], jerr)
					return
				}
				d.clocks[j.i] = int64(st.LastT)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// genRows builds a reusable pool of random rows.
func (d *driver) genRows() {
	rng := rand.New(rand.NewSource(d.cfg.Seed))
	pool := 1024
	if pool < d.cfg.Batch {
		pool = d.cfg.Batch
	}
	d.rows = make([][]float64, pool)
	for i := range d.rows {
		r := make([]float64, d.cfg.D)
		for j := range r {
			r[j] = rng.NormFloat64()
		}
		d.rows[i] = r
	}
}

// picker returns a per-worker tenant selector: Zipf-skewed when the
// config asks for it, uniform otherwise.
func (d *driver) picker(worker int) func() int {
	rng := rand.New(rand.NewSource(d.cfg.Seed + int64(worker)*7919))
	if d.cfg.ZipfS > 1 && d.cfg.Tenants > 1 {
		z := rand.NewZipf(rng, d.cfg.ZipfS, 1, uint64(d.cfg.Tenants-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return rng.Intn(d.cfg.Tenants) }
}

// worker drains the block queue. Stream modes lease a tenant for up to
// StreamBlocks consecutive blocks on one connection; rows mode
// re-picks per request.
func (d *driver) worker(w int, work chan int) {
	pick := d.picker(w)
	switch d.cfg.Mode {
	case ModeRows:
		for range work {
			d.rowsBlock(pick())
		}
	default:
		for {
			// Claim up to StreamBlocks blocks for one stream lease.
			claimed := 0
			for claimed < d.cfg.StreamBlocks {
				if _, ok := <-work; !ok {
					break
				}
				claimed++
			}
			if claimed == 0 {
				return
			}
			d.streamLease(pick(), claimed)
		}
	}
}

// batchFor carves a batch view out of the row pool and advances the
// tenant's clock. The caller holds the tenant's lock.
func (d *driver) batchFor(tn, blockIdx int) ([][]float64, []float64) {
	n := d.cfg.Batch
	off := (blockIdx * 131) % (len(d.rows) - n + 1)
	rows := d.rows[off : off+n]
	times := make([]float64, n)
	base := d.clocks[tn]
	for i := range times {
		times[i] = float64(base + int64(i) + 1)
	}
	d.clocks[tn] = base + int64(n)
	return rows, times
}

// record books one block's outcome against tenant tn.
func (d *driver) record(tn int, ms float64, rows int, failed bool) {
	d.mu.Lock()
	d.lat = append(d.lat, ms)
	if failed {
		d.errs++
	} else {
		d.sent += rows
		if d.tenantRows != nil && rows > 0 {
			d.tenantRows[d.ids[tn]] += rows
		}
	}
	d.mu.Unlock()
}

// rowsBlock sends one JSON batch request — the baseline path.
func (d *driver) rowsBlock(tn int) {
	d.locks[tn].Lock()
	rows, times := d.batchFor(tn, int(d.clocks[tn]))
	var b bytes.Buffer
	b.WriteString(`{"updates":[`)
	for i, row := range rows {
		if i > 0 {
			b.WriteByte(',')
		}
		u := struct {
			Row []float64 `json:"row"`
			T   float64   `json:"t"`
		}{row, times[i]}
		enc, _ := json.Marshal(u)
		b.Write(enc)
	}
	b.WriteString(`]}`)
	start := time.Now()
	resp, err := d.client.Post(
		d.cfg.BaseURL+"/v2/tenants/"+d.ids[tn]+"/rows", "application/json", &b)
	failed := err != nil
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		failed = resp.StatusCode != http.StatusOK
	}
	d.locks[tn].Unlock()
	d.record(tn, float64(time.Since(start).Microseconds())/1000, len(rows), failed)
}

// streamLease opens one stream to a tenant and pushes blocks through
// it, reading the ack after each block.
func (d *driver) streamLease(tn int, blocks int) {
	d.locks[tn].Lock()
	defer d.locks[tn].Unlock()

	ct := "application/x-ndjson"
	if d.cfg.Mode == ModeFrames {
		ct = "application/x-swsketch-frames"
	}
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST",
		d.cfg.BaseURL+"/v2/tenants/"+d.ids[tn]+"/stream", pr)
	if err != nil {
		d.failBlocks(blocks)
		return
	}
	req.Header.Set("Content-Type", ct)
	resp, err := d.client.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		pw.Close()
		d.failBlocks(blocks)
		return
	}
	// Pipeline: keep a few blocks in flight and read acks concurrently —
	// the point of the streaming plane is not paying a round trip per
	// block. The bounded channel is the in-flight window; latency is
	// still measured per block (send to ack).
	inflight := make(chan time.Time, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		acks := bufio.NewReader(resp.Body)
		for start := range inflight {
			line, err := acks.ReadBytes('\n')
			ms := float64(time.Since(start).Microseconds()) / 1000
			if err != nil {
				d.record(tn, ms, 0, true)
				continue
			}
			var ack struct {
				Accepted int              `json:"accepted"`
				Error    *json.RawMessage `json:"error"`
			}
			if jerr := json.Unmarshal(line, &ack); jerr != nil || ack.Error != nil {
				d.record(tn, ms, 0, true)
				continue
			}
			d.record(tn, ms, ack.Accepted, false)
		}
	}()
	for i := 0; i < blocks; i++ {
		rows, times := d.batchFor(tn, int(d.clocks[tn]))
		var payload []byte
		if d.cfg.Mode == ModeFrames {
			payload = encodeFrame(rows, times)
		} else {
			payload = encodeNDJSON(rows, times)
		}
		start := time.Now()
		if _, err := pw.Write(payload); err != nil {
			d.record(tn, 0, 0, true)
			break
		}
		inflight <- start
	}
	close(inflight)
	pw.Close()
	<-done
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// failBlocks books blocks that never reached the wire.
func (d *driver) failBlocks(n int) {
	d.mu.Lock()
	d.errs += n
	d.mu.Unlock()
}

// encodeNDJSON renders one block as update lines plus the blank-line
// flush marker.
func encodeNDJSON(rows [][]float64, times []float64) []byte {
	var b bytes.Buffer
	for i, row := range rows {
		u := struct {
			Row []float64 `json:"row"`
			T   float64   `json:"t"`
		}{row, times[i]}
		enc, _ := json.Marshal(u)
		b.Write(enc)
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	return b.Bytes()
}

// encodeFrame renders one block in the binary stream framing: a U32
// length prefix, then the binenc row block.
func encodeFrame(rows [][]float64, times []float64) []byte {
	w := binenc.NewWriter()
	w.Block(rows, times)
	payload := w.Bytes()
	out := make([]byte, 4, 4+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	return append(out, payload...)
}

// percentiles returns (p50, p99) of the sample in ms.
func percentiles(lat []float64) (p50, p99 float64) {
	if len(lat) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	return s[len(s)/2], s[int(float64(len(s)-1)*0.99)]
}
