package commit_test

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"testing/quick"

	"github.com/trustddl/trustddl/internal/commit"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

func TestDeterministic(t *testing.T) {
	m, _ := tensor.FromSlice(2, 2, []int64{1, 2, 3, 4})
	if !commit.Matrices(m).Equal(commit.Matrices(m.Clone())) {
		t.Fatal("identical matrices produced different digests")
	}
}

// The receiver's check: the digest of the bytes it received matches the
// committed one exactly when they are the committed opening's encoding.
func TestVerify(t *testing.T) {
	m, _ := tensor.FromSlice(2, 2, []int64{1, 2, 3, 4})
	d := commit.Matrices(m)
	if !commit.Bytes(transport.EncodeMatrices(m)).Equal(d) {
		t.Fatal("the committed opening's payload failed verification")
	}
	tampered := m.Clone()
	tampered.Data[3] = 5
	if commit.Bytes(transport.EncodeMatrices(tampered)).Equal(d) {
		t.Fatal("a tampered opening passed verification (Case 1 detection broken)")
	}
}

func TestShapeIsPartOfCommitment(t *testing.T) {
	a, _ := tensor.FromSlice(2, 2, []int64{1, 2, 3, 4})
	b, _ := tensor.FromSlice(1, 4, []int64{1, 2, 3, 4})
	if commit.Matrices(a).Equal(commit.Matrices(b)) {
		t.Fatal("same data with different shapes must not collide")
	}
}

func TestSequenceBoundaries(t *testing.T) {
	// Committing to [m1, m2] must differ from [m1 ++ m2] style splits.
	a, _ := tensor.FromSlice(1, 2, []int64{1, 2})
	b, _ := tensor.FromSlice(1, 2, []int64{3, 4})
	ab, _ := tensor.FromSlice(1, 4, []int64{1, 2, 3, 4})
	if commit.Matrices(a, b).Equal(commit.Matrices(ab)) {
		t.Fatal("matrix sequence boundaries must be encoded")
	}
	if commit.Matrices(a, b).Equal(commit.Matrices(b, a)) {
		t.Fatal("commitment must be order-sensitive")
	}
}

func TestEmptySequence(t *testing.T) {
	d0 := commit.Matrices()
	a, _ := tensor.FromSlice(1, 1, []int64{0})
	if d0.Equal(commit.Matrices(a)) {
		t.Fatal("empty sequence collides with a single zero matrix")
	}
}

// Property: any single-element change breaks verification.
func TestPropertyAnyFlipDetected(t *testing.T) {
	f := func(vals [6]int64, idx uint8, delta int64) bool {
		if delta == 0 {
			return true
		}
		m, err := tensor.FromSlice(2, 3, vals[:])
		if err != nil {
			return false
		}
		d := commit.Matrices(m)
		tampered := m.Clone()
		tampered.Data[int(idx)%6] += delta
		return !commit.Matrices(tampered).Equal(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzCommitIsWireHash holds the commitment to its definition: the
// SHA-256 of the opening's wire encoding. The fuzz input is a shape
// list (one byte each for rows and cols, zero dimensions included) and
// a seed the elements are drawn from.
func FuzzCommitIsWireHash(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{2, 3}, uint64(1))
	f.Add([]byte{0, 5, 1, 1}, uint64(7))
	f.Add([]byte{4, 0, 0, 0, 3, 2}, uint64(1<<63))
	f.Fuzz(func(t *testing.T, shapes []byte, seed uint64) {
		if len(shapes) > 16 {
			shapes = shapes[:16]
		}
		var ms []tensor.Matrix[int64]
		for i := 0; i+1 < len(shapes); i += 2 {
			rows, cols := int(shapes[i]%9), int(shapes[i+1]%9)
			m := tensor.Matrix[int64]{Rows: rows, Cols: cols, Data: make([]int64, rows*cols)}
			for k := range m.Data {
				seed = seed*6364136223846793005 + 1442695040888963407
				m.Data[k] = int64(seed)
			}
			ms = append(ms, m)
		}
		want := commit.Digest(sha256.Sum256(transport.EncodeMatrices(ms...)))
		if got := commit.Matrices(ms...); !got.Equal(want) {
			t.Fatalf("Matrices = %x, sha256 of the wire encoding = %x", got, want)
		}
		// The encoding itself, spelled out: u64 count, then per matrix
		// u32 rows, u32 cols and little-endian words.
		spelled := binary.LittleEndian.AppendUint64(nil, uint64(len(ms)))
		for _, m := range ms {
			spelled = binary.LittleEndian.AppendUint32(spelled, uint32(m.Rows))
			spelled = binary.LittleEndian.AppendUint32(spelled, uint32(m.Cols))
			for _, v := range m.Data {
				spelled = binary.LittleEndian.AppendUint64(spelled, uint64(v))
			}
		}
		if !commit.Bytes(spelled).Equal(want) {
			t.Fatal("the wire encoding differs from u64 count, u32 rows/cols, little-endian words")
		}
	})
}
