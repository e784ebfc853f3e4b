package transport

import (
	"math/bits"
	"sync"
)

// Frame buffer pool for the TCP transport. Every protocol round moves
// frames of a handful of recurring sizes, so writeFrame and readFrame
// recycle their buffers through size-classed sync.Pools instead of
// allocating per frame.
//
// Ownership (DESIGN.md §13): a write buffer is returned to the pool the
// moment Write hands the bytes to the kernel — the kernel copies, so
// this is unconditionally safe. A read buffer backs Message.Payload and
// is returned only through the receiver's opt-in Message.Release call;
// a receiver that never calls Release merely forgoes the recycle (the
// GC reclaims the buffer), it can never corrupt a live message.
//
// Buffers are stored as *[]byte boxes (a pointer rides in the interface
// word, so Put never heap-allocates a slice header) and the boxes
// themselves recycle through a secondary pool.

const (
	bufMinBits = 6  // 64 B: below this, allocation beats pool bookkeeping
	bufMaxBits = 26 // 64 MiB: jumbo frames allocate directly
)

var (
	bufClasses [bufMaxBits + 1]sync.Pool
	bufHeaders sync.Pool
)

// getBuf returns a []byte of length n with undefined contents. Callers
// must overwrite every byte they emit or parse.
func getBuf(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := bits.Len(uint(n - 1)) // smallest c with 2^c >= n
	if c < bufMinBits {
		c = bufMinBits
	}
	if c > bufMaxBits {
		return make([]byte, n)
	}
	if v := bufClasses[c].Get(); v != nil {
		box := v.(*[]byte)
		buf := (*box)[:n]
		*box = nil
		bufHeaders.Put(box)
		return buf
	}
	// Miss: allocate at class capacity so the buffer re-enters this
	// class on put (putBuf rounds capacity down).
	return make([]byte, 1<<c)[:n]
}

// putBuf returns buf to its size class; buf must not be used again.
func putBuf(buf []byte) {
	n := cap(buf)
	if n < 1<<bufMinBits {
		return
	}
	c := bits.Len(uint(n)) - 1 // largest c with 2^c <= n
	if c > bufMaxBits {
		c = bufMaxBits
	}
	box, _ := bufHeaders.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = buf[:1<<c]
	bufClasses[c].Put(box)
}
