package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The reference the row decoder is held to: encoding/json's strict
// decode (decodeStrict) into the request types rows bodies, bulk bodies
// and stream lines used to decode into, then the scatter of their
// updates into a dense block.

type refRequest struct {
	Updates []refUpdate `json:"updates"`
}

type refUpdate struct {
	Row []float64 `json:"row,omitempty"`
	Idx []int     `json:"idx,omitempty"`
	Val []float64 `json:"val,omitempty"`
	T   float64   `json:"t"`
}

type refBulk struct {
	Tenants []struct {
		ID      string      `json:"id"`
		Updates []refUpdate `json:"updates"`
	} `json:"tenants"`
}

// refBlock turns updates into the rows/times block of a tenant of
// width d: a sparse update is scattered into a zero row of width d.
func refBlock(updates []refUpdate, d int) ([][]float64, []float64, *apiError) {
	rows := make([][]float64, len(updates))
	times := make([]float64, len(updates))
	for i, u := range updates {
		rows[i], times[i] = u.Row, u.T
		if len(u.Idx) == 0 && len(u.Val) == 0 {
			continue
		}
		if len(u.Row) > 0 {
			return nil, nil, errf(http.StatusBadRequest, CodeInvalidArgument,
				"update %d: row and idx/val are mutually exclusive", i)
		}
		if len(u.Idx) != len(u.Val) {
			return nil, nil, errf(http.StatusBadRequest, CodeInvalidArgument,
				"update %d: %d indices but %d values", i, len(u.Idx), len(u.Val))
		}
		rows[i] = make([]float64, d)
		prev := -1
		for k, ix := range u.Idx {
			if ix <= prev || ix >= d {
				return nil, nil, errf(http.StatusBadRequest, CodeInvalidArgument,
					"update %d: sparse index %d invalid for dimension %d", i, ix, d)
			}
			rows[i][ix], prev = u.Val[k], ix
		}
	}
	return rows, times, nil
}

// outcome is what a body comes to before the apply step: invalid_json,
// an invalid_argument scatter error, or a block, per tenant for bulk.
type outcome struct {
	badJSON bool
	ids     []string // bulk only
	blocks  []refBlk // one per tenant (bulk) or one
	bodyErr error    // the decode error, for the failure message
}

type refBlk struct {
	err   *apiError
	rows  [][]float64
	times []float64
}

// The surfaces FuzzIngestJSON decodes a body as.
const (
	surfaceRows = iota
	surfaceBulk
	surfaceLine
	surfaces
)

// refOutcome decodes body as the surface did before the row decoder.
// A stream line is decoded twice into a two-update batch.
func refOutcome(body []byte, surface, d int) outcome {
	var o outcome
	switch surface {
	case surfaceRows:
		var req refRequest
		if o.bodyErr = decodeStrict(bytes.NewReader(body), &req); o.bodyErr != nil {
			o.badJSON = true
			return o
		}
		o.blocks = append(o.blocks, refBlockOf(req.Updates, d))
	case surfaceBulk:
		var req refBulk
		if o.bodyErr = decodeStrict(bytes.NewReader(body), &req); o.bodyErr != nil {
			o.badJSON = true
			return o
		}
		for _, item := range req.Tenants {
			o.ids = append(o.ids, item.ID)
			o.blocks = append(o.blocks, refBlockOf(item.Updates, d))
		}
	case surfaceLine:
		var u refUpdate
		if o.bodyErr = decodeStrict(bytes.NewReader(body), &u); o.bodyErr != nil {
			o.badJSON = true
			return o
		}
		o.blocks = append(o.blocks, refBlockOf([]refUpdate{u, u}, d))
	}
	return o
}

func refBlockOf(ups []refUpdate, d int) refBlk {
	rows, times, err := refBlock(ups, d)
	return refBlk{err, rows, times}
}

// decoderOutcome decodes body with the row decoder dec, as the
// surface's handler does.
func decoderOutcome(dec *rowDecoder, body []byte, surface, d int) outcome {
	var o outcome
	blk := func(ups []jsonUpdate) refBlk {
		rows, times, err := dec.block(ups, d)
		// Copy: the next block reuses the decoder's storage.
		b := refBlk{err: err, times: append([]float64(nil), times...)}
		for _, r := range rows {
			b.rows = append(b.rows, append([]float64(nil), r...))
		}
		return b
	}
	switch surface {
	case surfaceRows:
		if o.bodyErr = dec.rowsBody(body); o.bodyErr != nil {
			o.badJSON = true
			return o
		}
		o.blocks = append(o.blocks, blk(dec.ups))
	case surfaceBulk:
		if o.bodyErr = dec.bulkBody(body); o.bodyErr != nil {
			o.badJSON = true
			return o
		}
		for _, item := range dec.tenants {
			o.ids = append(o.ids, item.id)
			o.blocks = append(o.blocks, blk(dec.ups[item.ups.off:item.ups.off+item.ups.n]))
		}
	case surfaceLine:
		dec.reset()
		for i := 0; i < 2; i++ {
			if o.bodyErr = dec.line(body); o.bodyErr != nil {
				o.badJSON = true
				return o
			}
		}
		o.blocks = append(o.blocks, blk(dec.ups))
	}
	return o
}

// sameOutcome reports how two outcomes differ, or "" when they agree:
// on invalid_json, the invalid_argument messages, and the ids, rows and
// times bit for bit.
func sameOutcome(want, got outcome) string {
	if want.badJSON || got.badJSON {
		if want.badJSON != got.badJSON {
			return fmt.Sprintf("invalid_json: reference %v (%v), decoder %v (%v)",
				want.badJSON, want.bodyErr, got.badJSON, got.bodyErr)
		}
		return ""
	}
	if !slices.Equal(want.ids, got.ids) {
		return fmt.Sprintf("ids %q, decoder %q", want.ids, got.ids)
	}
	if len(want.blocks) != len(got.blocks) {
		return fmt.Sprintf("%d blocks, decoder %d", len(want.blocks), len(got.blocks))
	}
	for b, w := range want.blocks {
		g := got.blocks[b]
		if (w.err == nil) != (g.err == nil) || w.err != nil && *w.err != *g.err {
			return fmt.Sprintf("block %d: error %v, decoder %v", b, w.err, g.err)
		}
		if w.err != nil {
			continue
		}
		if len(w.rows) != len(g.rows) || len(w.times) != len(g.times) {
			return fmt.Sprintf("block %d: %d rows, decoder %d", b, len(w.rows), len(g.rows))
		}
		for i := range w.rows {
			if math.Float64bits(w.times[i]) != math.Float64bits(g.times[i]) {
				return fmt.Sprintf("block %d row %d: t %v, decoder %v", b, i, w.times[i], g.times[i])
			}
			if len(w.rows[i]) != len(g.rows[i]) {
				return fmt.Sprintf("block %d row %d: width %d, decoder %d", b, i, len(w.rows[i]), len(g.rows[i]))
			}
			for j := range w.rows[i] {
				if math.Float64bits(w.rows[i][j]) != math.Float64bits(g.rows[i][j]) {
					return fmt.Sprintf("block %d row %d: value %d %v, decoder %v", b, i, j, w.rows[i][j], g.rows[i][j])
				}
			}
		}
	}
	return ""
}

// repeatedKey reports whether some object in b repeats a key as
// encoding/json matches keys (case-insensitively, after unescaping).
func repeatedKey(b []byte) bool {
	type frame struct {
		obj, wantKey bool
		keys         []string
	}
	var stack []frame
	// filled marks the value slot of the enclosing object as used.
	filled := func() {
		if n := len(stack); n > 0 && stack[n-1].obj {
			stack[n-1].wantKey = true
		}
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if n := len(stack); n > 0 && stack[n-1].wantKey {
			if key, ok := tok.(string); ok {
				for _, k := range stack[n-1].keys {
					if strings.EqualFold(k, key) {
						return true
					}
				}
				stack[n-1].keys = append(stack[n-1].keys, key)
				stack[n-1].wantKey = false
				continue
			}
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, frame{obj: true, wantKey: true})
		case json.Delim('['):
			stack = append(stack, frame{})
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
			filled()
		default:
			filled()
		}
	}
}

// FuzzIngestJSON holds the row decoder to encoding/json's outcome on
// every input: a body decoded as a rows body, a bulk body or an NDJSON
// line (decoded twice into one batch) for a tenant of width 1 to 64
// must come to the same invalid_json, the same invalid_argument
// message, or the same ids, rows and times bit for bit, as the strict
// encoding/json decode and dense scatter the handlers used before it.
// The one exception: a body with a repeated key must answer
// invalid_json. The committed corpus holds one input per rule of the
// grammar (rowjson.go).
func FuzzIngestJSON(f *testing.F) {
	dec := new(rowDecoder)
	f.Fuzz(func(t *testing.T, body []byte, surface, dim uint8) {
		s, d := int(surface)%surfaces, 1+int(dim)%64
		got := decoderOutcome(dec, body, s, d)
		if repeatedKey(body) {
			if !got.badJSON {
				t.Fatalf("surface %d: a repeated key decoded without error", s)
			}
			return
		}
		if diff := sameOutcome(refOutcome(body, s, d), got); diff != "" {
			t.Fatalf("surface %d, d %d: %s", s, d, diff)
		}
	})
}

// ingestBody renders a rows body of n updates of width d the way a
// client formats floats.
func ingestBody(n, d int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"updates":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"row":[`)
		for j := 0; j < d; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(math.Sin(float64(i*d+j))*3.7, 'g', -1, 64))
		}
		fmt.Fprintf(&b, `],"t":%d}`, i+1)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// TestRowDecoderAllocs pins the cost of decoding a 64-row, 16-wide
// rows body and scattering it into a block: nothing, once a decoder's
// stores have grown, as the pool keeps them (encoding/json made 345
// allocations of 92 KB for the same body).
func TestRowDecoderAllocs(t *testing.T) {
	body := ingestBody(64, 16)
	dec := new(rowDecoder)
	decode := func() {
		if err := dec.rowsBody(body); err != nil {
			t.Fatal(err)
		}
		if _, _, err := dec.block(dec.ups, 16); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(20, decode); allocs != 0 {
		t.Errorf("decoding a 64×16 rows body: %v allocations, want 0", allocs)
	}
}

// BenchmarkIngestJSON decodes a 64-row, 16-wide rows body into a block,
// with the row decoder and with the encoding/json reference.
func BenchmarkIngestJSON(b *testing.B) {
	body := ingestBody(64, 16)
	b.Run("decoder", func(b *testing.B) {
		dec := new(rowDecoder)
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			_ = dec.rowsBody(body)
			_, _, _ = dec.block(dec.ups, 16)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req refRequest
			_ = decodeStrict(bytes.NewReader(body), &req)
			_, _, _ = refBlock(req.Updates, 16)
		}
	})
}

// TestStreamOverlongLine: a line past the 1 MiB cap fails the pending
// batch as one block with one invalid_json ack naming the cap, and the
// stream ends.
func TestStreamOverlongLine(t *testing.T) {
	srv := newServer(t, lmCfg(3))
	h := srv.Handler()
	stream := func(body io.Reader) []itemResult {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v2/tenants/default/stream", body))
		var acks []itemResult
		for _, line := range bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var a itemResult
			if err := json.Unmarshal(line, &a); err != nil {
				t.Fatalf("ack %q: %v", line, err)
			}
			acks = append(acks, a)
		}
		return acks
	}
	valid := `{"row":[1,0,0],"t":1}` + "\n" + `{"row":[0,1,0],"t":2}` + "\n"
	long := `{"row":[1,0,0],"t":3,"pad":"` + strings.Repeat("x", 2<<20) + `"}` + "\n"
	acks := stream(strings.NewReader(valid + long + `{"row":[0,0,1],"t":4}` + "\n"))
	if len(acks) != 1 || acks[0].Error == nil || acks[0].Error.Code != CodeInvalidJSON ||
		!strings.Contains(acks[0].Error.Message, strconv.Itoa(streamMaxLine)) {
		t.Fatalf("acks %+v, want one invalid_json ack naming the %d-byte cap", acks, streamMaxLine)
	}
	def, _ := srv.Registry().Get(DefaultTenant)
	if n := def.Updates(); n != 0 {
		t.Fatalf("updates %d, want 0: the pending batch must not apply", n)
	}
}
