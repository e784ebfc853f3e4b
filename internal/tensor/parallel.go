// Parallel execution layer for the hot kernels.
//
// Every kernel in this package partitions its work so that no single
// output element's reduction is ever split across workers: MatMul and
// the element-wise kernels partition by output row/element (each output
// is produced start-to-finish by one goroutine, inner loops untouched),
// and the Col2Im scatter is re-expressed as a per-pixel gather that
// accumulates contributions in exactly the serial loop order. The
// consequence is that parallel results are element-wise identical to
// the serial ones — trivially over the int64 fixed-point ring, where
// two's-complement addition is associative and commutative regardless
// of chunking, and also over float64, where the per-element addition
// *order* is what matters and is preserved by never splitting a
// reduction. The equivalence suite in parallel_test.go asserts this at
// chunk boundaries for both domains.
//
// Small inputs never pay goroutine overhead: a kernel fans out only
// when its estimated element-op count reaches parallelThreshold, and
// then to at most runtime.GOMAXPROCS(0) workers. There is no knob in
// the code: GOMAXPROCS is the operator's, and GOMAXPROCS=1 is the
// serial reference mode.
package tensor

import (
	"runtime"
	"sync"
)

// parallelThreshold is the minimum number of element operations a
// kernel invocation must perform before it fans out to worker
// goroutines. Spawning and joining a goroutine costs on the order of a
// microsecond — roughly the cost of 10⁴ int64 multiply-adds — so below
// this the serial loop always wins. Only this package's tests lower it,
// to exercise chunk boundaries at tiny shapes.
var parallelThreshold = 1 << 14

// workersFor returns how many goroutines a kernel splitting n units of
// outer-loop work totalling ops element operations should use. The
// GOMAXPROCS read comes after the threshold check, so the serial path
// never pays for it.
func workersFor(n, ops int) int {
	if n < 2 || ops < parallelThreshold {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), n)
}

// serialFor reports whether a kernel over n outer units totalling ops
// element operations will run serially. The allocation-free kernels
// check this before constructing their parallelFor closure: a closure
// that may reach a goroutine is heap-allocated at creation even when
// the serial path is taken, which would break the zero-alloc pin.
func serialFor(n, ops int) bool { return workersFor(n, ops) <= 1 }

// parallelFor splits the index range [0, n) into at most
// workersFor(n, ops) contiguous chunks and runs fn on each chunk,
// concurrently when more than one chunk results. fn must only write
// state owned by its [lo, hi) slice of the range.
func parallelFor(n, ops int, fn func(lo, hi int)) {
	p := workersFor(n, ops)
	if p <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + p - 1) / p
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
