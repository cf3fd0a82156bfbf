package core

import (
	"fmt"

	"swsketch/internal/binenc"
	"swsketch/internal/stream"
	"swsketch/internal/trace"
)

// DI snapshot format. DI's body (writeBody/readBody) is its whole
// deterministic state, with each per-level sketch as a blob; the two
// lifts that snapshot put their own header ahead of it. A DI-FD
// snapshot is difdMagic, d and the FD tuning, then the body; a DI-AMM
// snapshot is AMM's header, then the body with COD blobs in place of FD
// blobs (see amm_persist.go).
const difdMagic = uint64(0x44494644_00000001) // "DIFD" v1

// diBlockMinBytes is the encoded size of a DI block without its blob's
// bytes: two indices, two times and the blob length.
const diBlockMinBytes = 5 * 8

// MarshalBinary snapshots a DI-FD sketch. Only the FrequentDirections
// backing is supported: restoring must rebuild the per-level factory,
// and FD's is fully determined by (ℓ, d) and its tuning; DI-RP, DI-HASH
// and DI-ISVD refuse, as LM-RP does. DI-FD is deterministic, so a
// restored sketch continues bit-exactly.
func (s *DI) MarshalBinary() ([]byte, error) {
	if s.name != "DI-FD" {
		return nil, fmt.Errorf("core: DI snapshots support DI-FD only, have %s", s.name)
	}
	w := binenc.NewWriter()
	w.U64(difdMagic)
	w.Int(s.d)
	w.Int(s.fdOpts.Buffer)
	w.F64(s.fdOpts.Alpha)
	if err := s.writeBody(w); err != nil {
		return nil, err
	}
	out := w.Bytes()
	s.tr.Emit(s.name, trace.KindSnapshot, s.lastT, float64(len(out)), 0)
	return out, nil
}

// UnmarshalBinary restores a DI-FD snapshot into the receiver. The
// tracer survives restore.
func (s *DI) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	r.Magic(difdMagic)
	d := r.Int()
	o := stream.FDOpts{Buffer: r.Int(), Alpha: r.F64()}
	cfg := readDIConfig(r)
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: DI snapshot: %w", err)
	}
	if err := checkDIFD(cfg, d, o); err != nil {
		return fmt.Errorf("core: DI snapshot: %w", err)
	}
	restored := newDIFD(cfg, d, o)
	if err := restored.readBody(r, func(r *binenc.Reader, level int) (stream.Sketch, error) {
		return readFDBlob(r, cfg.fdLevelEll(level), d, o)
	}); err != nil {
		return fmt.Errorf("core: DI snapshot: %w", err)
	}
	if err := r.End(); err != nil {
		return fmt.Errorf("core: DI snapshot: %w", err)
	}
	restored.SetTracer(s.tr)
	*s = *restored
	s.tr.Emit(s.name, trace.KindRestore, s.lastT, float64(len(data)), 0)
	return nil
}

// writeBody writes what every DI snapshot (DI-FD and DI-AMM) carries
// after its header: the config, the dyadic counter and clock, the norm
// range, each level's completed blocks, every level's active sketch,
// and the open raw rows. A decoder reads the config with readDIConfig,
// checks it and builds the DI from it; readBody reads the rest.
func (s *DI) writeBody(w *binenc.Writer) error {
	c := s.cfg
	w.Int(c.N)
	w.F64(c.R)
	w.Int(c.L)
	w.Int(c.Ell)
	w.Int(c.MinEll)
	w.F64(c.RSlack)

	w.Int(s.m)
	w.F64(s.curSize)
	w.F64(s.curStart)
	w.F64(s.lastT)
	w.Bool(s.seen)
	w.F64(s.normMin)
	w.F64(s.normMax)
	w.Bool(s.rawOverflow)
	for _, lv := range s.levels {
		w.Int(len(lv))
		for i := range lv {
			blk := &lv[i]
			w.Int(blk.startIdx)
			w.Int(blk.endIdx)
			w.F64(blk.startT)
			w.F64(blk.endT)
			if err := writeBlob(w, blk.sk); err != nil {
				return err
			}
		}
	}
	for i, sk := range s.actives {
		if err := writeBlob(w, sk); err != nil {
			return err
		}
		w.F64(s.activeStartT[i])
		w.Int(s.activeRows[i])
	}
	w.Int(len(s.raw))
	for i, row := range s.raw {
		writeSparseRow(w, row, s.rawTimes[i])
	}
	return nil
}

// readDIConfig reads the config writeBody starts with; the lift's check
// judges it.
func readDIConfig(r *binenc.Reader) DIConfig {
	return DIConfig{N: r.Int(), R: r.F64(), L: r.Int(), Ell: r.Int(), MinEll: r.Int(), RSlack: r.F64()}
}

// readBody restores the state writeBody wrote after the config into s,
// a DI built from that config whose actives are still nil, decoding the
// sketches of (1-based) level i with readSketch(r, i). The actives come
// from their decoded blobs, so nothing is allocated for them ahead of
// the bytes that carry them, and every count is guarded by
// binenc.Reader.Count.
//
// The blocks must have the structure closeBlocks and expire keep: a
// level-i block spans 2^(i−1) aligned level-1 blocks, each level is one
// gapless run in order, none ending past the m completed, and level 1
// ends at m. The query walk then takes at most one step per decoded
// level-1 block, each finding its block by index; without the checks, a
// patched m alone would make every query step through each index up to
// m (< 2³¹).
func (s *DI) readBody(r *binenc.Reader, readSketch func(r *binenc.Reader, level int) (stream.Sketch, error)) error {
	s.m = r.Int()
	s.curSize = r.F64()
	s.curStart = r.F64()
	s.lastT, s.seen = r.Clock()
	s.normMin = r.F64()
	s.normMax = r.F64()
	s.rawOverflow = r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	for i := range s.levels {
		span := 1 << i
		n := r.Count(r.Int(), diBlockMinBytes)
		if r.Err() != nil {
			return r.Err()
		}
		prevEnd := 0
		for j := 0; j < n; j++ {
			blk := diBlock{startIdx: r.Int(), endIdx: r.Int(), startT: r.F64(), endT: r.F64()}
			if r.Err() != nil {
				return r.Err()
			}
			ok := blk.startIdx > prevEnd && (j == 0 || blk.startIdx == prevEnd+1) && blk.endIdx <= s.m &&
				blk.endIdx-blk.startIdx+1 == span && (blk.startIdx-1)%span == 0
			if i == 0 {
				ok = ok && blk.startIdx == s.m-n+1+j
			}
			if !ok {
				return fmt.Errorf("level %d block %d spans [%d,%d] of %d completed", i+1, j, blk.startIdx, blk.endIdx, s.m)
			}
			prevEnd = blk.endIdx
			sk, err := readSketch(r, i+1)
			if err != nil {
				return err
			}
			blk.sk = sk
			s.levels[i] = append(s.levels[i], blk)
		}
	}
	for i := range s.actives {
		sk, err := readSketch(r, i+1)
		if err != nil {
			return err
		}
		s.actives[i] = sk
		s.activeStartT[i] = r.F64()
		s.activeRows[i] = r.Int()
	}
	n := r.Count(r.Int(), lmRawRowMinBytes)
	for i := 0; i < n; i++ {
		row, t, err := readSparseRow(r, s.d)
		if err != nil {
			return err
		}
		s.raw = append(s.raw, row)
		s.rawTimes = append(s.rawTimes, t)
	}
	return r.Err()
}
