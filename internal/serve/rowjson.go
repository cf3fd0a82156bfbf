package serve

// The one decoder of the JSON bodies that carry rows: POST
// /v2/tenants/{id}/rows, POST /v2/rows and each NDJSON stream line. It
// reads the update grammar ({"row":[...],"t":1} or
// {"idx":[...],"val":[...],"t":1}) straight into flat stores that it
// reuses from body to body, then scatters a body's updates into the
// rows/times block the apply step takes, as a binary frame decodes into
// a binenc.Block. Outcomes match encoding/json's on the same bodies
// (FuzzIngestJSON holds the two side by side):
//
//   - a key matches its field case-insensitively (bytes.EqualFold) after
//     unescaping; a key or bulk id with an escape or a non-ASCII byte is
//     unquoted by encoding/json's own string rules;
//   - null is the zero value: of a number, an array, an update, a
//     tenant or the whole body;
//   - a number goes through strconv.ParseFloat and an idx through
//     strconv.ParseInt base 10, so 1e400 and an idx of 1.0 are errors;
//   - an unknown field, a value of another type, any syntax error and
//     data after the value are errors (invalid_json).
//
// One deliberate narrowing: an object that repeats a field is an error,
// where encoding/json lets the last one win and merges a repeated array
// into the earlier one element by element.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
)

// The field names of each object of the grammar, in the order a
// field's index in its object's list names it.
var (
	rowsFields   = []string{"updates"}
	bulkFields   = []string{"tenants"}
	tenantFields = []string{"id", "updates"}
	updateFields = []string{"row", "idx", "val", "t"}
)

// rowDecoder parses row-carrying JSON into flat stores and scatters it
// into a row block. Every store is reused by the next body, so a
// decoder serves one request or one stream at a time.
type rowDecoder struct {
	body bytes.Buffer // the request body, read whole

	s   []byte // the input being parsed
	off int    // read offset in s
	err error  // the first error, after which parsing stops

	ups     []jsonUpdate // the updates parsed, in order
	vals    []float64    // every update's row and val values
	idx     []int        // every update's idx values
	tenants []jsonTenant // a bulk body's items, in order

	// The block scatter hands the apply step.
	times []float64
	rows  [][]float64
	dense []float64 // sparse updates' rows, of the tenant's width each
}

// extent is the run [off, off+n) of a flat store.
type extent struct{ off, n int }

// jsonUpdate is one parsed update: its row, idx and val as extents of the
// decoder's stores (n 0 when absent or null), and its t.
type jsonUpdate struct {
	row, idx, val extent
	t             float64
}

// jsonTenant is one item of a bulk body: its id and its updates, an extent
// of the decoder's ups.
type jsonTenant struct {
	id  string
	ups extent
}

// decoders keeps row decoders, with their grown stores, across requests.
var decoders = sync.Pool{New: func() any { return new(rowDecoder) }}

// pooledBytes bounds the stores a pooled decoder keeps, so that one
// outsized body does not pin its buffers for the life of the process.
const pooledBytes = 4 << 20

// getDecoder returns a pooled decoder with no updates parsed.
func getDecoder() *rowDecoder {
	d := decoders.Get().(*rowDecoder)
	d.reset()
	return d
}

// putDecoder returns d to the pool, unless its stores outgrew
// pooledBytes.
func putDecoder(d *rowDecoder) {
	d.s = nil // may view a stream's line buffer
	if d.body.Cap()+8*(cap(d.vals)+cap(d.idx)+cap(d.dense)) <= pooledBytes {
		decoders.Put(d)
	}
}

// rowsBody parses a POST /v2/tenants/{id}/rows body,
// {"updates":[...]}, into d.ups.
func (d *rowDecoder) rowsBody(body []byte) error { return d.parse(body, rowsFields, d.update) }

// bulkBody parses a POST /v2/rows body,
// {"tenants":[{"id":"a","updates":[...]},...]}, into d.tenants.
func (d *rowDecoder) bulkBody(body []byte) error { return d.parse(body, bulkFields, d.tenant) }

// parse parses body, an object whose one field, named by field, holds
// an array whose elements elem parses.
func (d *rowDecoder) parse(body []byte, field []string, elem func() bool) error {
	d.reset()
	d.s = body
	d.object(field, func(int) bool { return d.array(elem) })
	return d.end()
}

// line parses one NDJSON stream line, an update, and appends it to the
// updates already pending in d.ups. On error the pending updates are
// unspecified.
func (d *rowDecoder) line(line []byte) error {
	d.s, d.off, d.err = line, 0, nil
	d.update()
	return d.end()
}

// reset drops every parsed update and tenant, keeping the storage.
func (d *rowDecoder) reset() {
	d.s, d.off, d.err = nil, 0, nil
	d.ups, d.vals, d.idx, d.tenants = d.ups[:0], d.vals[:0], d.idx[:0], d.tenants[:0]
}

// block scatters ups, updates of this decoder, into the rows/times
// block the apply step takes for a tenant of width dim. A dense update
// keeps its row as given, for the apply step to check; a sparse one is
// scattered into a zero row of width dim once every update has passed
// the sparse checks. The block views the decoder's stores, so it is
// valid until the decoder's next parse or block.
func (d *rowDecoder) block(ups []jsonUpdate, dim int) ([][]float64, []float64, *apiError) {
	sparse := 0
	for i, u := range ups {
		if u.idx.n == 0 && u.val.n == 0 {
			continue
		}
		if u.row.n > 0 {
			return nil, nil, errf(http.StatusBadRequest, CodeInvalidArgument,
				"update %d: row and idx/val are mutually exclusive", i)
		}
		if u.idx.n != u.val.n {
			return nil, nil, errf(http.StatusBadRequest, CodeInvalidArgument,
				"update %d: %d indices but %d values", i, u.idx.n, u.val.n)
		}
		prev := -1
		for _, ix := range d.idx[u.idx.off : u.idx.off+u.idx.n] {
			if ix <= prev || ix >= dim {
				return nil, nil, errf(http.StatusBadRequest, CodeInvalidArgument,
					"update %d: sparse index %d invalid for dimension %d", i, ix, dim)
			}
			prev = ix
		}
		sparse++
	}
	n := len(ups)
	if cap(d.times) < n {
		d.times, d.rows = make([]float64, n), make([][]float64, n)
	}
	if cap(d.dense) < sparse*dim {
		d.dense = make([]float64, sparse*dim)
	}
	d.times, d.rows = d.times[:n], d.rows[:n]
	dense := d.dense[:sparse*dim]
	clear(dense)
	for i, u := range ups {
		d.times[i] = u.t
		if u.idx.n == 0 && u.val.n == 0 {
			end := u.row.off + u.row.n
			d.rows[i] = d.vals[u.row.off:end:end]
			continue
		}
		row := dense[:dim:dim]
		dense = dense[dim:]
		for k, ix := range d.idx[u.idx.off : u.idx.off+u.idx.n] {
			row[ix] = d.vals[u.val.off+k]
		}
		d.rows[i] = row
	}
	return d.rows, d.times, nil
}

// tenant parses one bulk item and appends it to d.tenants.
func (d *rowDecoder) tenant() bool {
	tn := jsonTenant{ups: extent{off: len(d.ups)}}
	ok := d.object(tenantFields, func(field int) bool {
		if field == 0 {
			var ok bool
			tn.id, ok = d.id()
			return ok
		}
		first := len(d.ups)
		ok := d.array(d.update)
		tn.ups = extent{first, len(d.ups) - first}
		return ok
	})
	d.tenants = append(d.tenants, tn)
	return ok
}

// update parses one update and appends it to d.ups.
func (d *rowDecoder) update() bool {
	var u jsonUpdate
	ok := d.object(updateFields, func(field int) bool {
		switch field {
		case 0:
			return d.floats(&u.row)
		case 1:
			return d.ints(&u.idx)
		case 2:
			return d.floats(&u.val)
		}
		return d.float(&u.t)
	})
	d.ups = append(d.ups, u)
	return ok
}

// object parses an object of the grammar, or null for one with no
// fields: for each member it matches the key against names and calls f
// with the field's index to parse the value. An unknown or repeated
// field is an error.
func (d *rowDecoder) object(names []string, f func(field int) bool) bool {
	if d.null() {
		return true
	}
	if !d.consume('{') {
		return d.fail("an object")
	}
	if d.consume('}') {
		return true
	}
	var seen uint
	for {
		field, ok := d.key(names)
		if !ok {
			return false
		}
		if seen&(1<<field) != 0 {
			d.err = fmt.Errorf("repeated field %q before offset %d", names[field], d.off)
			return false
		}
		seen |= 1 << field
		if !d.consume(':') {
			return d.fail("':'")
		}
		if !f(field) {
			return false
		}
		if d.consume('}') {
			return true
		}
		if !d.consume(',') {
			return d.fail("',' or '}'")
		}
	}
}

// array parses an array, or null for an empty one, calling elem for
// each element.
func (d *rowDecoder) array(elem func() bool) bool {
	if d.null() {
		return true
	}
	if !d.consume('[') {
		return d.fail("an array")
	}
	if d.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if d.consume(']') {
			return true
		}
		if !d.consume(',') {
			return d.fail("',' or ']'")
		}
	}
}

// floats parses an array of numbers into d.vals and sets *sp to it.
func (d *rowDecoder) floats(sp *extent) bool {
	off := len(d.vals)
	ok := d.array(func() bool {
		var v float64
		ok := d.float(&v)
		d.vals = append(d.vals, v)
		return ok
	})
	*sp = extent{off, len(d.vals) - off}
	return ok
}

// ints parses an array of integers into d.idx and sets *sp to it.
func (d *rowDecoder) ints(sp *extent) bool {
	off := len(d.idx)
	ok := d.array(func() bool {
		var v int
		if !d.null() {
			tok, ok := d.number()
			if !ok {
				return false
			}
			n, err := strconv.ParseInt(string(tok), 10, 0)
			if err != nil {
				d.err = fmt.Errorf("cannot read number %s as an index before offset %d", tok, d.off)
				return false
			}
			v = int(n)
		}
		d.idx = append(d.idx, v)
		return true
	})
	*sp = extent{off, len(d.idx) - off}
	return ok
}

// float parses a number, or null for 0, into *v.
func (d *rowDecoder) float(v *float64) bool {
	if d.null() {
		*v = 0
		return true
	}
	tok, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.err = fmt.Errorf("cannot read number %s as a float64 before offset %d", tok, d.off)
		return false
	}
	*v = f
	return true
}

// id parses a bulk item's id: a string, or null for "".
func (d *rowDecoder) id() (string, bool) {
	if d.null() {
		return "", true
	}
	tok, plain, ok := d.str()
	if !ok {
		return "", false
	}
	if plain {
		return string(tok[1 : len(tok)-1]), true
	}
	return d.unquote(tok)
}

// key parses an object key and its field's index in names.
func (d *rowDecoder) key(names []string) (int, bool) {
	tok, plain, ok := d.str()
	if !ok {
		return 0, false
	}
	key := tok[1 : len(tok)-1]
	if !plain {
		s, ok := d.unquote(tok)
		if !ok {
			return 0, false
		}
		key = []byte(s)
	}
	for field, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return field, true
		}
	}
	d.err = fmt.Errorf("unknown field %q before offset %d", key, d.off)
	return 0, false
}

// unquote decodes a string token by encoding/json's rules: its escapes,
// and invalid UTF-8 as U+FFFD.
func (d *rowDecoder) unquote(tok []byte) (string, bool) {
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		d.err = fmt.Errorf("string before offset %d: %v", d.off, err)
		return "", false
	}
	return s, true
}

// str scans a string token after any whitespace and returns it, quotes
// included, and whether it is plain: ASCII without escapes, so the
// bytes between the quotes are its value.
func (d *rowDecoder) str() (tok []byte, plain, ok bool) {
	d.space()
	s, i := d.s, d.off
	if i >= len(s) || s[i] != '"' {
		return nil, false, d.fail("a string")
	}
	plain = true
	for i++; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			tok, d.off = s[d.off:i+1], i+1
			return tok, plain, true
		case c < 0x20:
			d.off = i
			return nil, false, d.fail("a string character")
		case c >= 0x80:
			plain = false
		case c == '\\':
			plain = false
			if i++; i >= len(s) {
				break
			}
			switch s[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i >= len(s) || !isHex(s[i]) {
						d.off = i
						return nil, false, d.fail("a hex digit")
					}
				}
			default:
				d.off = i
				return nil, false, d.fail("an escape")
			}
		}
	}
	d.off = len(s)
	return nil, false, d.fail("the end of the string")
}

// number scans a number token after any whitespace, by JSON's grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it.
func (d *rowDecoder) number() ([]byte, bool) {
	d.space()
	s, i := d.s, d.off
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		for i++; i < len(s) && isDigit(s[i]); i++ {
		}
	default:
		d.off = i
		return nil, d.fail("a number")
	}
	if i < len(s) && s[i] == '.' {
		if i++; i >= len(s) || !isDigit(s[i]) {
			d.off = i
			return nil, d.fail("a digit")
		}
		for i++; i < len(s) && isDigit(s[i]); i++ {
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		if i++; i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i >= len(s) || !isDigit(s[i]) {
			d.off = i
			return nil, d.fail("a digit")
		}
		for i++; i < len(s) && isDigit(s[i]); i++ {
		}
	}
	tok := s[d.off:i]
	d.off = i
	return tok, true
}

// null consumes a null literal after any whitespace, if one is next.
func (d *rowDecoder) null() bool {
	d.space()
	if bytes.HasPrefix(d.s[d.off:], []byte("null")) {
		d.off += 4
		return true
	}
	return false
}

// consume consumes c after any whitespace, if it is next.
func (d *rowDecoder) consume(c byte) bool {
	d.space()
	if d.off < len(d.s) && d.s[d.off] == c {
		d.off++
		return true
	}
	return false
}

// space skips JSON whitespace.
func (d *rowDecoder) space() {
	for d.off < len(d.s) {
		switch d.s[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// end checks that only whitespace follows the value, and returns the
// first error.
func (d *rowDecoder) end() error {
	if d.err == nil {
		if d.space(); d.off < len(d.s) {
			d.fail("the end of the input")
		}
	}
	return d.err
}

// fail records a syntax error: want was expected at d.off.
func (d *rowDecoder) fail(want string) bool {
	if d.off >= len(d.s) {
		d.err = fmt.Errorf("unexpected end of input, want %s", want)
	} else {
		d.err = fmt.Errorf("invalid character %q at offset %d, want %s", d.s[d.off], d.off, want)
	}
	return false
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
