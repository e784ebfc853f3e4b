// Buffer pool for ring-matrix storage.
//
// The secure step's working set is a handful of matrix shapes repeated
// every iteration (masked operands, Beaver combination temporaries,
// transposed weights), so the allocator sees the same sizes over and
// over. GetMatrix/PutMatrix recycle those buffers through size-classed
// sync.Pools: in the steady state a pooled temporary costs a pool hit
// and a memclr instead of an allocation plus GC pressure.
//
// Ownership discipline (see DESIGN.md §13): a matrix obtained from
// GetMatrix is owned by its caller until PutMatrix returns the buffer.
// After PutMatrix the matrix — and every view sharing its storage
// (Reshape, slicing) — must not be touched; the buffer may already back
// an unrelated matrix. PutMatrix is always optional: a buffer that is
// never returned is collected by the GC like any other slice, so
// callers only Put what they can prove is dead.
package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// poolMinBits/poolMaxBits bound the pooled size classes: 2^6 = 64
// elements (512 B, below which allocation is cheaper than pooling
// bookkeeping) up to 2^24 elements (128 MiB, the wire codec's shape
// bound). Requests outside this range allocate directly.
const (
	poolMinBits = 6
	poolMaxBits = 24
)

var (
	poolGets atomic.Int64 // satisfied from a pool class
	poolPuts atomic.Int64 // returned to a pool class
	poolMiss atomic.Int64 // allocated fresh (class empty or outside the pooled range)

	// One sync.Pool per power-of-two size class. Buffers are stored at
	// their class capacity and re-sliced to the requested length. They
	// are stored as *[]int64: a pointer fits in the interface word, so
	// Put never boxes — putting a bare []int64 would heap-allocate its
	// slice header and the steady state would not be allocation-free.
	classes [poolMaxBits + 1]sync.Pool

	// headers recycles the *[]int64 boxes themselves: PutSlice takes an
	// empty box from here, GetSlice returns the emptied box.
	headers sync.Pool
)

// PoolStats reports cumulative pool traffic: gets served from a class,
// puts accepted, and misses (fresh allocations).
func PoolStats() (gets, puts, misses int64) {
	return poolGets.Load(), poolPuts.Load(), poolMiss.Load()
}

// classFor returns the size-class index covering n elements, or -1 when
// n is outside the pooled range.
func classFor(n int) int {
	if n < 1<<poolMinBits || n > 1<<poolMaxBits {
		return -1
	}
	c := bits.Len(uint(n - 1)) // smallest c with 2^c >= n
	if c < poolMinBits {
		c = poolMinBits
	}
	return c
}

// GetMatrix returns a zeroed rows×cols ring matrix whose storage may
// come from the pool. The caller owns it until PutMatrix; shapes are
// the caller's responsibility (rows, cols must be positive).
func GetMatrix(rows, cols int) Matrix[int64] {
	n := rows * cols
	data := GetSlice(n)
	return Matrix[int64]{Rows: rows, Cols: cols, Data: data}
}

// PutMatrix returns m's storage to the pool. m and every view of its
// storage are dead after this call. Zero-shape matrices are ignored.
func PutMatrix(m Matrix[int64]) { PutSlice(m.Data) }

// GetSlice returns a zeroed []int64 of length n, pooled when possible.
func GetSlice(n int) []int64 {
	if n <= 0 {
		return nil
	}
	if c := classFor(n); c >= 0 {
		if v := classes[c].Get(); v != nil {
			box := v.(*[]int64)
			buf := (*box)[:n]
			*box = nil
			headers.Put(box)
			for i := range buf {
				buf[i] = 0
			}
			poolGets.Add(1)
			return buf
		}
		// Miss: allocate at full class capacity so the buffer lands back
		// in this same class on Put (PutSlice rounds capacity down).
		poolMiss.Add(1)
		return make([]int64, 1<<c)[:n]
	}
	poolMiss.Add(1)
	return make([]int64, n)
}

// PutSlice returns buf to its size class. buf must not be used again.
func PutSlice(buf []int64) {
	// Class by capacity, rounding down so a Get never receives a buffer
	// shorter than its class promises (miss-path buffers have exact
	// request capacity, not a power of two).
	n := cap(buf)
	if n < 1<<poolMinBits {
		return
	}
	c := bits.Len(uint(n)) - 1 // largest c with 2^c <= n
	if c > poolMaxBits {
		c = poolMaxBits
	}
	box, _ := headers.Get().(*[]int64)
	if box == nil {
		box = new([]int64)
	}
	*box = buf[:1<<c]
	poolPuts.Add(1)
	classes[c].Put(box)
}
