package serve

// Streaming ingest: POST /v2/tenants/{id}/stream holds one long-lived
// connection and applies row blocks as they arrive, acknowledging each
// block with an itemResult line so the client can pipeline without
// per-batch HTTP overhead. Two wire encodings share the handler:
//
//	application/x-ndjson (default)
//	  One update per line, the object the rows route takes inside
//	  "updates" ({"row":[...],"t":1}), read by the row decoder
//	  (rowjson.go). A blank line flushes the pending batch as one
//	  block; batches also flush at streamBatchRows rows. Sparse updates
//	  work. A line longer than streamMaxLine is malformed.
//
//	application/x-swsketch-frames
//	  Length-prefixed binary frames: a little-endian uint32 payload
//	  length, then a binenc row block (Int n, Int d, n×F64 times,
//	  n·d×F64 row-major values). One frame is one block. ~8 bytes per
//	  value vs ~20 for JSON, and no float formatting on either end.
//
// Acks are NDJSON itemResult lines in both modes, flushed after every
// block: index is the block's ordinal within the stream, accepted and
// last_t mirror the batch-ingest response, and error carries the
// uniform {"code","message"} body with the same codes as /v2 bulk. A
// failed block does not close the stream — the tenant's clock is
// untouched, so the client may repair and resend.
//
// Backpressure: each tenant has a bounded in-flight block budget
// (WithStreamQueue). A stream open against an exhausted tenant is
// refused with 429 + Retry-After before any body is read; a block
// arriving while the budget is exhausted is shed with an "overloaded"
// error ack (the stream stays up). The budget bounds memory per
// tenant no matter how many connections fan in.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"swsketch/internal/binenc"
	"swsketch/internal/registry"
	"swsketch/internal/trace"
)

// CodeOverloaded is the error code shed stream blocks carry: the
// tenant's in-flight budget is exhausted; retry after a pause.
const CodeOverloaded = "overloaded"

// DefaultStreamQueue is the per-tenant bound on in-flight stream
// blocks before the backpressure gate sheds load; see WithStreamQueue.
const DefaultStreamQueue = 64

// WithStreamQueue bounds each tenant's in-flight streaming-ingest
// blocks: a stream open or block beyond the bound is shed with 429 +
// Retry-After (or an "overloaded" ack mid-stream) instead of queueing
// unboundedly. The default is DefaultStreamQueue.
func WithStreamQueue(n int) Option {
	return func(s *Server) {
		if n < 1 {
			panic(fmt.Sprintf("serve: stream queue %d", n))
		}
		s.streamQueue = n
	}
}

// Stream wire-format constants.
const (
	// ContentTypeNDJSON selects (and marks) newline-delimited JSON.
	ContentTypeNDJSON = "application/x-ndjson"
	// ContentTypeFrames selects the binary block framing.
	ContentTypeFrames = "application/x-swsketch-frames"

	// streamBatchRows caps how many NDJSON updates buffer before an
	// implicit flush (a blank line flushes earlier).
	streamBatchRows = 256
	// streamMaxLine bounds one NDJSON line.
	streamMaxLine = 1 << 20
	// streamMaxFrame bounds one binary frame's payload so a hostile
	// length prefix cannot demand an arbitrary allocation.
	streamMaxFrame = 64 << 20
)

// streamConn is one open stream's state: the acknowledgement encoder
// and the running block/row counters the close event reports.
type streamConn struct {
	s     *Server
	t     *registry.Tenant
	rc    *http.ResponseController
	enc   *json.Encoder
	index int // next block ordinal
	rows  int // rows accepted so far
}

// handleStream serves POST /v2/tenants/{id}/stream; see the comment at
// the top of this file for the protocol.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	binaryMode := false
	switch ct := r.Header.Get("Content-Type"); ct {
	case "", ContentTypeNDJSON, "application/json":
	case ContentTypeFrames:
		binaryMode = true
	default:
		httpError(w, http.StatusUnsupportedMediaType, CodeInvalidArgument,
			"unsupported stream content type %q", ct)
		return
	}
	// Probe the tenant's budget before touching the body: a saturated
	// tenant sheds the whole connection attempt cheaply.
	if !t.TryEnqueue(s.streamQueue) {
		if s.streamShed != nil {
			s.streamShed.Inc()
		}
		s.hot.ObserveEvent(t.ID())
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, CodeOverloaded,
			"tenant %q has %d stream blocks in flight", t.ID(), t.Pending())
		return
	}
	t.Dequeue() // probe only; blocks re-enter the gate individually

	mode := "ndjson"
	if binaryMode {
		mode = "frames"
	}
	if s.streamOpen != nil {
		s.streamOpen.Add(1)
		defer s.streamOpen.Add(-1)
	}
	if s.tr.Enabled() {
		s.tr.EmitNote("serve", trace.KindStreamOpen, 0, 0, 0, t.ID()+" "+mode)
	}
	conn := &streamConn{s: s, t: t, rc: http.NewResponseController(w), enc: json.NewEncoder(w)}
	// Acks interleave with body reads on one HTTP/1.x connection; without
	// full-duplex the first response write would half-close the request
	// body under us.
	_ = conn.rc.EnableFullDuplex()
	w.Header().Set("Content-Type", ContentTypeNDJSON)
	w.WriteHeader(http.StatusOK)
	_ = conn.rc.Flush() // commit headers so the client starts reading acks
	if binaryMode {
		conn.runFrames(r.Body)
	} else {
		conn.runNDJSON(r.Body)
	}
	if s.tr.Enabled() {
		s.tr.EmitNote("serve", trace.KindStreamClose, 0,
			float64(conn.index), float64(conn.rows), t.ID()+" "+mode)
	}
}

// runNDJSON consumes newline-delimited JSON updates, flushing batches
// at blank lines, the size cap, and EOF. The pending batch is parsed
// into one row decoder, reused for every batch of the connection. A
// failed body read ends the stream with no ack and the pending batch
// unapplied, whether it fails at a line boundary or inside a line.
func (c *streamConn) runNDJSON(body io.Reader) {
	rd := &readErr{r: body}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 64<<10), streamMaxLine)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if atEOF && rd.err != nil && bytes.IndexByte(data, '\n') < 0 {
			return 0, nil, rd.err // a line the failed read cut short
		}
		return bufio.ScanLines(data, atEOF)
	})
	d := getDecoder()
	defer putDecoder(d)
	flush := func() bool {
		if len(d.ups) == 0 {
			return true
		}
		rows, times, apiErr := d.block(d.ups, c.t.D())
		var ok bool
		if apiErr != nil {
			ok = c.fail(apiErr)
		} else {
			ok = c.block(rows, times)
		}
		d.reset()
		return ok
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			if !flush() {
				return
			}
			continue
		}
		if err := d.line(line); err != nil {
			// A malformed line poisons the pending batch (its boundary is
			// now unknowable), so fail the batch as one block and stop.
			c.fail(&apiError{code: CodeInvalidJSON, msg: fmt.Sprintf("bad line: %v", err)})
			return
		}
		if len(d.ups) >= streamBatchRows && !flush() {
			return
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// An over-long line is malformed like any other.
			c.fail(&apiError{code: CodeInvalidJSON,
				msg: fmt.Sprintf("bad line: longer than %d bytes", streamMaxLine)})
		}
		// Otherwise the read failed: the peer is gone, nothing to ack to.
		return
	}
	flush()
}

// readErr records its reader's failure other than io.EOF; a
// bufio.Scanner reads no further after one.
type readErr struct {
	r   io.Reader
	err error
}

func (r *readErr) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	if err != nil && err != io.EOF {
		r.err = err
	}
	return n, err
}

// runFrames consumes length-prefixed binenc row blocks. One frame's
// storage is reused for every frame of the connection: the sketches
// copy what they keep, so nothing references it once a block is
// acked.
func (c *streamConn) runFrames(body io.Reader) {
	br := bufio.NewReader(body)
	var lenBuf [4]byte
	var f frame
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				c.fail(&apiError{code: CodeInvalidArgument,
					msg: fmt.Sprintf("read frame length: %v", err)})
			}
			return // clean EOF between frames ends the stream
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n == 0 || n > streamMaxFrame {
			c.fail(&apiError{code: CodeInvalidArgument,
				msg: fmt.Sprintf("frame length %d out of range", n)})
			return
		}
		if cap(f.payload) < int(n) {
			f.payload = make([]byte, n)
		}
		f.payload = f.payload[:n]
		if _, err := io.ReadFull(br, f.payload); err != nil {
			c.fail(&apiError{code: CodeInvalidArgument,
				msg: fmt.Sprintf("torn frame: %v", err)})
			return
		}
		if err := decodeFrame(f.payload, c.t.D(), &f); err != nil {
			// A bad frame is unrecoverable: the next length prefix cannot
			// be trusted, so ack the failure and close.
			c.fail(&apiError{code: CodeInvalidArgument, msg: err.Error()})
			return
		}
		if !c.block(f.block.Rows, f.block.Times) {
			return
		}
	}
}

// frame is a binary frame's decode target, reused across a
// connection's frames: the payload bytes, then the decoded row block.
type frame struct {
	payload []byte
	block   binenc.Block
}

// decodeFrame parses one binary frame payload, a binenc row block of
// n ≥ 1 rows of the tenant's dimension, into f's block, reusing its
// storage. On error f's contents are unspecified.
func decodeFrame(payload []byte, wantD int, f *frame) error {
	r := binenc.NewReader(payload)
	n, d := r.BlockHeader()
	if r.Err() == nil && (n < 1 || d != wantD) {
		return fmt.Errorf("frame claims %d rows of dimension %d, want dimension %d", n, d, wantD)
	}
	r.Block(n, d, &f.block)
	if err := r.End(); err != nil {
		return fmt.Errorf("frame: %w", err)
	}
	return nil
}

// block admits one row block through the backpressure gate, applies
// it, and acks the outcome. It reports whether the stream should
// continue (only an unwritable ack stops it).
func (c *streamConn) block(rows [][]float64, times []float64) bool {
	if !c.t.TryEnqueue(c.s.streamQueue) {
		if c.s.streamShed != nil {
			c.s.streamShed.Inc()
		}
		return c.fail(&apiError{code: CodeOverloaded,
			msg: fmt.Sprintf("tenant %q has %d stream blocks in flight", c.t.ID(), c.t.Pending())})
	}
	resp, apiErr := c.s.acquireIngest(c.t, rows, times)
	c.t.Dequeue()
	if apiErr != nil {
		return c.ack(apiErr, 0, 0)
	}
	c.rows += resp.Accepted
	if c.s.streamRows != nil {
		c.s.streamRows.Add(uint64(resp.Accepted))
		c.s.streamBlocks.Inc()
	}
	return c.ack(nil, resp.Accepted, resp.LastT)
}

// fail records the error on the hot-key sidecar's events plane and
// acks it. For a block the apply step rejected, acquireIngest already
// counted the event, so those go straight to ack.
func (c *streamConn) fail(apiErr *apiError) bool {
	c.s.hot.ObserveEvent(c.t.ID())
	return c.ack(apiErr, 0, 0)
}

// ack writes one itemResult line and flushes it to the client.
func (c *streamConn) ack(apiErr *apiError, accepted int, lastT float64) bool {
	res := itemResult{Index: c.index, Accepted: accepted, LastT: lastT}
	c.index++
	if apiErr != nil {
		res.Error = &errorBody{Code: apiErr.code, Message: apiErr.msg}
	}
	if err := c.enc.Encode(res); err != nil {
		return false
	}
	_ = c.rc.Flush()
	return true
}
