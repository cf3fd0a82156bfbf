package stream

import (
	"fmt"

	"swsketch/internal/mat"
)

// HashFamily issues stream-wide row identifiers and the shared hash
// functions (h, g) that make Hash sketches mergeable. Two Hash
// sketches are mergeable by addition exactly when they hash disjoint
// row identifiers with the same functions, so every sketch drawn from
// one family pulls identifiers from the family's shared counter.
type HashFamily struct {
	seed uint64
	next uint64
}

// NewHashFamily returns a family keyed by seed.
func NewHashFamily(seed uint64) *HashFamily {
	return &HashFamily{seed: seed}
}

// NewSketch returns a fresh Hash sketch with ℓ buckets over dimension
// d, drawing row identifiers from this family.
func (f *HashFamily) NewSketch(ell, d int) *Hash {
	if ell < 1 || d < 1 {
		panic(fmt.Sprintf("stream: Hash needs ell ≥ 1 and d ≥ 1, got %d, %d", ell, d))
	}
	return &Hash{fam: f, ell: ell, d: d, b: mat.NewDense(ell, d)}
}

// splitmix64 is the finaliser of SplitMix64 — a fast, well-distributed
// 64-bit mixer used to derive h(i) and g(i) from the row identifier.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash is the feature-hashing ("hashing trick") sketch of Appendix A:
// B = S·A where S is a random ℓ×n sign matrix with one non-zero per
// column, applied as b_{h(i)} += g(i)·aᵢ. With ℓ = O(d²/ε²) buckets it
// achieves covariance error ε with high probability; its update cost
// is O(d), the cheapest of all the streaming sketches.
type Hash struct {
	fam *HashFamily
	ell int
	d   int
	b   *mat.Dense
}

// Update hashes one row into its bucket with a random sign.
func (s *Hash) Update(row []float64) {
	if len(row) != s.d {
		panic(fmt.Sprintf("stream: Hash row length %d, want %d", len(row), s.d))
	}
	id := s.fam.next
	s.fam.next++
	hv := splitmix64(id ^ s.fam.seed)
	bucket := int(hv % uint64(s.ell))
	sign := 1.0
	if splitmix64(hv)&1 == 0 {
		sign = -1
	}
	dst := s.b.Row(bucket)
	for j, v := range row {
		dst[j] += sign * v
	}
}

// UpdateBatch hashes rows in order, validating lengths once up front;
// row identifiers advance exactly as under repeated Update calls.
func (s *Hash) UpdateBatch(rows [][]float64) {
	for i, r := range rows {
		if len(r) != s.d {
			panic(fmt.Sprintf("stream: Hash batch row %d length %d, want %d", i, len(r), s.d))
		}
	}
	for _, r := range rows {
		id := s.fam.next
		s.fam.next++
		hv := splitmix64(id ^ s.fam.seed)
		bucket := int(hv % uint64(s.ell))
		sign := 1.0
		if splitmix64(hv)&1 == 0 {
			sign = -1
		}
		dst := s.b.Row(bucket)
		for j, v := range r {
			dst[j] += sign * v
		}
	}
}

// Matrix returns a copy of the ℓ×d bucket matrix.
func (s *Hash) Matrix() *mat.Dense { return s.b.Clone() }

// RowsStored reports ℓ.
func (s *Hash) RowsStored() int { return s.ell }

// Merge adds other's buckets into the receiver. Both sketches must
// come from the same family and have the same shape.
func (s *Hash) Merge(other Mergeable) {
	o, ok := other.(*Hash)
	if !ok {
		panic(fmt.Sprintf("stream: Hash.Merge with %T", other))
	}
	if o.fam != s.fam {
		panic("stream: Hash.Merge across families")
	}
	if o.ell != s.ell || o.d != s.d {
		panic(fmt.Sprintf("stream: Hash.Merge shape %d×%d vs %d×%d", o.ell, o.d, s.ell, s.d))
	}
	s.b.Add(o.b)
}

// NextID reports the row identifier the sketch's family issues next.
func (s *Hash) NextID() uint64 { return s.fam.next }

// RewindIDs resets the family's identifier counter to id, a value
// NextID reported earlier. The identifiers drawn since then get issued
// again, so only a sketch that is then discarded — a query's
// accumulator — may have drawn them.
func (s *Hash) RewindIDs(id uint64) { s.fam.next = id }

// CloneEmpty returns a fresh sketch from the same family.
func (s *Hash) CloneEmpty() Mergeable { return s.fam.NewSketch(s.ell, s.d) }

var _ Mergeable = (*Hash)(nil)
