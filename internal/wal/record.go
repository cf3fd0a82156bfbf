package wal

// Record codec. Every record is a self-delimiting binenc frame:
//
//	U32  magic   "SWAL" (little-endian 0x4C415753)
//	U64  seq     per-shard, strictly increasing
//	U32  kind    rows | create | delete | checkpoint
//	Blob tenant  the tenant ID
//	     payload kind-specific (see below)
//	U32  crc     IEEE CRC-32 of every preceding byte of the record
//
// Payloads:
//
//	rows        U64 start (tenant updates before the block), then
//	            binenc's row block: Int n, Int d, n timestamps, n·d
//	            row values (row-major)
//	create      Blob of the tenant's declarative config as JSON
//	delete      empty
//	checkpoint  Blob of the tenant's spill-file bytes (ID, config,
//	            update count, sketch), opaque to the log
//
// Kind 4, older logs' snapshot record, decodes as corrupt: damage.
//
// Decoding distinguishes two failure classes: ErrTorn (the buffer ends
// mid-record — the normal shape of a crash during an append) and
// ErrCorrupt (bad magic, implausible lengths, or a CRC mismatch —
// bytes that were durably written and then damaged). Replay treats a
// torn final record as a clean stop and anything else as damage.

import (
	"errors"
	"fmt"
	"hash/crc32"

	"swsketch/internal/binenc"
)

// Record kinds. Exported for replay-stats consumers; the byte layout
// is internal.
const (
	// KindRows is a block of ingested rows for one tenant.
	KindRows = uint32(1)
	// KindCreate records a tenant creation with its config JSON.
	KindCreate = uint32(2)
	// KindDelete records an explicit tenant deletion.
	KindDelete = uint32(3)
	// KindCheckpoint records a tenant's whole state, which replaces
	// the tenant's and makes its earlier records obsolete.
	KindCheckpoint = uint32(5)
)

const recMagic = uint32(0x4C415753) // "SWAL" little-endian

// Decode-time sanity caps; real blocks are orders of magnitude
// smaller, and anything beyond these is corruption, not data.
const (
	maxBlockRows = 1 << 24
	maxBlockDim  = 1 << 24
)

// ErrTorn reports a record cut short by the end of its segment — the
// expected tail state after a crash mid-append.
var ErrTorn = errors.New("wal: torn record")

// ErrCorrupt reports a structurally damaged record: wrong magic, an
// implausible length, or a CRC mismatch.
var ErrCorrupt = errors.New("wal: corrupt record")

// tornError is ErrTorn with the read failure behind it. Replay reads
// only its class, so its message is formatted only when read.
type tornError struct{ cause error }

func (e tornError) Error() string        { return ErrTorn.Error() + ": " + e.cause.Error() }
func (e tornError) Is(target error) bool { return target == ErrTorn }
func (e tornError) Unwrap() error        { return e.cause }

// record is one decoded WAL entry.
type record struct {
	seq    uint64
	kind   uint32
	tenant string

	// rows payload
	start uint64
	times []float64
	rows  [][]float64

	// create payload (config JSON) or checkpoint payload
	blob []byte
}

// encodedBytes returns the record's frame, CRC included.
func (rec *record) encodedBytes() []byte {
	w := binenc.NewWriter()
	w.U32(recMagic)
	w.U64(rec.seq)
	w.U32(rec.kind)
	w.Blob([]byte(rec.tenant))
	switch rec.kind {
	case KindRows:
		w.U64(rec.start)
		w.Block(rec.rows, rec.times)
	case KindCreate, KindCheckpoint:
		w.Blob(rec.blob)
	case KindDelete:
	default:
		panic(fmt.Sprintf("wal: encode unknown record kind %d", rec.kind))
	}
	body := w.Bytes()
	w.U32(crc32.ChecksumIEEE(body))
	return w.Bytes()
}

// decodeRecord parses one record starting at data[off], returning the
// record and the offset one past it. Errors wrap ErrTorn or
// ErrCorrupt; see the package comment for how replay maps them to
// clean-stop vs damaged.
func decodeRecord(data []byte, off int) (record, int, error) {
	var rec record
	r := binenc.NewReader(data[off:])
	if magic := r.U32(); r.Err() != nil {
		return rec, off, fmt.Errorf("%w: segment ends inside a record header", ErrTorn)
	} else if magic != recMagic {
		return rec, off, fmt.Errorf("%w: bad magic %#x at offset %d", ErrCorrupt, magic, off)
	}
	rec.seq = r.U64()
	rec.kind = r.U32()
	rec.tenant = string(r.Blob())
	switch rec.kind {
	case KindRows:
		rec.start = r.U64()
		n, d := r.BlockHeader()
		if r.Err() == nil && (n > maxBlockRows || d > maxBlockDim) {
			return rec, off, fmt.Errorf("%w: implausible block %dx%d", ErrCorrupt, n, d)
		}
		// A block that runs past the bytes fails the reader, which the
		// CRC read below reports as torn.
		var b binenc.Block
		r.Block(n, d, &b)
		rec.times, rec.rows = b.Times, b.Rows
	case KindCreate, KindCheckpoint:
		rec.blob = r.Blob()
	case KindDelete:
	default:
		if r.Err() == nil {
			return rec, off, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, rec.kind)
		}
	}
	crcOff := r.Off()
	sum := r.U32()
	if err := r.Err(); err != nil {
		// Any read failure here means the frame could not be parsed to
		// completion with the bytes available — indistinguishable from
		// a crash mid-append, so it reads as a torn tail. Replay only
		// forgives a torn record at the very end of the last segment;
		// anywhere else it counts as damage.
		return rec, off, tornError{err}
	}
	if want := crc32.ChecksumIEEE(data[off : off+crcOff]); sum != want {
		return rec, off, fmt.Errorf("%w: crc %#x, want %#x (seq %d)", ErrCorrupt, sum, want, rec.seq)
	}
	return rec, off + crcOff + 4, nil
}
