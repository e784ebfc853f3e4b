package tensor

import "fmt"

// ConvShape describes a 2-D convolution over a multi-channel image, as
// used by the paper's Table I network (kernel 5×5, padding 2, stride 2,
// 5 output channels over a 28×28 input).
//
// Images are stored as matrices with one row per input channel and H·W
// columns (row-major spatial layout). Im2Col lowers the convolution to a
// single matrix multiplication, which is exactly the form consumed by
// SecMatMul-BT.
type ConvShape struct {
	InChannels int
	Height     int
	Width      int
	Kernel     int
	Stride     int
	Pad        int
}

// Validate checks that the shape describes a realizable convolution.
func (c ConvShape) Validate() error {
	switch {
	case c.InChannels <= 0 || c.Height <= 0 || c.Width <= 0:
		return fmt.Errorf("tensor: conv input shape %dx%dx%d invalid", c.InChannels, c.Height, c.Width)
	case c.Kernel <= 0 || c.Stride <= 0 || c.Pad < 0:
		return fmt.Errorf("tensor: conv kernel=%d stride=%d pad=%d invalid", c.Kernel, c.Stride, c.Pad)
	case c.Height+2*c.Pad < c.Kernel || c.Width+2*c.Pad < c.Kernel:
		return fmt.Errorf("tensor: conv kernel %d larger than padded input %dx%d", c.Kernel, c.Height+2*c.Pad, c.Width+2*c.Pad)
	}
	return nil
}

// OutHeight returns the number of output rows.
func (c ConvShape) OutHeight() int { return (c.Height+2*c.Pad-c.Kernel)/c.Stride + 1 }

// OutWidth returns the number of output columns.
func (c ConvShape) OutWidth() int { return (c.Width+2*c.Pad-c.Kernel)/c.Stride + 1 }

// PatchSize returns the number of elements in one receptive field.
func (c ConvShape) PatchSize() int { return c.InChannels * c.Kernel * c.Kernel }

// InSize returns the flattened width of one image, InChannels·H·W.
func (c ConvShape) InSize() int { return c.InChannels * c.Height * c.Width }

// Im2Col lowers img (InChannels × H·W) to a patch matrix with one row
// per output position (OutH·OutW rows) and PatchSize columns. Padding
// positions contribute zeros.
func (c ConvShape) Im2Col(img Matrix[int64]) (Matrix[int64], error) {
	return im2col(c, img)
}

// Im2ColFloat is Im2Col over the float64 domain (plaintext baseline).
func (c ConvShape) Im2ColFloat(img Matrix[float64]) (Matrix[float64], error) {
	return im2col(c, img)
}

func im2col[T Element](c ConvShape, img Matrix[T]) (Matrix[T], error) {
	if err := c.Validate(); err != nil {
		return Matrix[T]{}, err
	}
	if img.Rows != c.InChannels || img.Cols != c.Height*c.Width {
		return Matrix[T]{}, fmt.Errorf("tensor: im2col image %dx%d does not match shape %dch %dx%d",
			img.Rows, img.Cols, c.InChannels, c.Height, c.Width)
	}
	outH, outW := c.OutHeight(), c.OutWidth()
	out := Matrix[T]{Rows: outH * outW, Cols: c.PatchSize(), Data: make([]T, outH*outW*c.PatchSize())}
	// Partition by output row oy: patch rows are disjoint slices of out.
	parallelFor(outH, outH*outW*c.PatchSize(), func(lo, hi int) {
		im2colRows(c, img.Data, out.Data, lo, hi)
	})
	return out, nil
}

// im2colRows lowers output rows [loOy, hiOy) of one image into dst,
// which must be the full (OutH·OutW)×PatchSize patch buffer.
func im2colRows[T Element](c ConvShape, img, dst []T, loOy, hiOy int) {
	outW := c.OutWidth()
	patch := c.PatchSize()
	for oy := loOy; oy < hiOy; oy++ {
		for ox := 0; ox < outW; ox++ {
			row := dst[(oy*outW+ox)*patch : (oy*outW+ox+1)*patch]
			idx := 0
			for ch := 0; ch < c.InChannels; ch++ {
				for ky := 0; ky < c.Kernel; ky++ {
					iy := oy*c.Stride + ky - c.Pad
					for kx := 0; kx < c.Kernel; kx++ {
						ix := ox*c.Stride + kx - c.Pad
						if iy >= 0 && iy < c.Height && ix >= 0 && ix < c.Width {
							row[idx] = img[ch*c.Height*c.Width+iy*c.Width+ix]
						}
						idx++
					}
				}
			}
		}
	}
}

// Col2Im scatter-adds a patch-matrix gradient (OutH·OutW × PatchSize)
// back into image layout (InChannels × H·W). It is the adjoint of Im2Col
// and implements the input-gradient path of the convolution backward
// pass.
func (c ConvShape) Col2Im(cols Matrix[int64]) (Matrix[int64], error) {
	return col2im(c, cols)
}

// Col2ImFloat is Col2Im over the float64 domain.
func (c ConvShape) Col2ImFloat(cols Matrix[float64]) (Matrix[float64], error) {
	return col2im(c, cols)
}

func col2im[T Element](c ConvShape, cols Matrix[T]) (Matrix[T], error) {
	if err := c.Validate(); err != nil {
		return Matrix[T]{}, err
	}
	outH, outW := c.OutHeight(), c.OutWidth()
	if cols.Rows != outH*outW || cols.Cols != c.PatchSize() {
		return Matrix[T]{}, fmt.Errorf("tensor: col2im %dx%d does not match %d positions × %d patch",
			cols.Rows, cols.Cols, outH*outW, c.PatchSize())
	}
	img := Matrix[T]{Rows: c.InChannels, Cols: c.Height * c.Width, Data: make([]T, c.InSize())}
	parallelFor(len(img.Data), outH*outW*c.PatchSize(), func(lo, hi int) {
		col2imPixels(c, cols.Data, img.Data, lo, hi)
	})
	return img, nil
}

// col2imPixels computes image pixels [lo, hi) (flat InChannels×H·W
// indices) of the Col2Im adjoint. The textbook formulation scatter-adds
// each patch row into the image, which races under row partitioning;
// here the scatter is inverted into a per-pixel gather so every pixel's
// accumulation is owned by exactly one goroutine. The contributing
// patches are visited in ascending (oy, ox) order — the same order the
// serial scatter adds them — so the per-pixel float64 addition chain,
// and hence the result, is identical to the scatter's.
func col2imPixels[T Element](c ConvShape, cols, img []T, lo, hi int) {
	outH, outW := c.OutHeight(), c.OutWidth()
	hw := c.Height * c.Width
	kk := c.Kernel * c.Kernel
	patch := c.PatchSize()
	for idx := lo; idx < hi; idx++ {
		ch := idx / hw
		rem := idx % hw
		iy := rem / c.Width
		ix := rem % c.Width
		// A patch at (oy, ox) touches (iy, ix) iff ky = iy+Pad−oy·Stride
		// and kx = ix+Pad−ox·Stride both land in [0, Kernel).
		oyLo, oyHi := 0, (iy+c.Pad)/c.Stride
		if n := iy + c.Pad - c.Kernel + 1; n > 0 {
			oyLo = (n + c.Stride - 1) / c.Stride
		}
		if oyHi > outH-1 {
			oyHi = outH - 1
		}
		oxLo, oxHi := 0, (ix+c.Pad)/c.Stride
		if n := ix + c.Pad - c.Kernel + 1; n > 0 {
			oxLo = (n + c.Stride - 1) / c.Stride
		}
		if oxHi > outW-1 {
			oxHi = outW - 1
		}
		var acc T
		for oy := oyLo; oy <= oyHi; oy++ {
			ky := iy + c.Pad - oy*c.Stride
			for ox := oxLo; ox <= oxHi; ox++ {
				kx := ix + c.Pad - ox*c.Stride
				acc += cols[(oy*outW+ox)*patch+ch*kk+ky*c.Kernel+kx]
			}
		}
		img[idx] = acc
	}
}

// Im2ColBatch lowers a batch matrix (one flattened image per row) into
// a vertically stacked patch matrix of shape (B·OutH·OutW)×PatchSize.
func Im2ColBatch[T Element](c ConvShape, x Matrix[T]) (Matrix[T], error) {
	inLen := c.InSize()
	if x.Cols != inLen {
		return Matrix[T]{}, fmt.Errorf("tensor: im2col batch width %d, want %d", x.Cols, inLen)
	}
	if err := c.Validate(); err != nil {
		return Matrix[T]{}, err
	}
	positions := c.OutHeight() * c.OutWidth()
	out := Matrix[T]{
		Rows: x.Rows * positions,
		Cols: c.PatchSize(),
		Data: make([]T, x.Rows*positions*c.PatchSize()),
	}
	outH := c.OutHeight()
	// Partition by sample: each image lowers into a disjoint block of
	// out, serially inside (no nested fan-out).
	parallelFor(x.Rows, x.Rows*positions*c.PatchSize(), func(lo, hi int) {
		for s := lo; s < hi; s++ {
			im2colRows(c, x.Data[s*inLen:(s+1)*inLen], out.Data[s*positions*out.Cols:(s+1)*positions*out.Cols], 0, outH)
		}
	})
	return out, nil
}

// Conv2DBatch convolves every image in x (one flattened InChannels·H·W
// image per row) with the kernel matrix w (PatchSize × OutChannels)
// without materializing the patch matrix. It is Im2ColBatch followed by
// MatMul fused into one kernel: each output row walks its receptive
// field in the same (ch, ky, kx) order the patch row would be laid out
// in, skips exactly the elements MatMul's a==0 fast path would skip
// (padding positions and zero pixels), and accumulates in the same
// ascending-index order — so the result is bit-identical to the
// two-step path in both element domains. The patch matrix for the
// Table I conv is 196×25 per image. The plaintext layers never build
// it, and neither does the secure forward pass: it opens its masked
// input at image shape and convolves that (im2col is linear, so the
// lowering commutes with the masking). The secure backward pass still
// lowers, for the weight gradient, as do the comparison frameworks'
// own protocols.
func Conv2DBatch[T Element](c ConvShape, x, w Matrix[T]) (Matrix[T], error) {
	positions := c.OutHeight() * c.OutWidth()
	out := Matrix[T]{Rows: x.Rows * positions, Cols: w.Cols, Data: make([]T, x.Rows*positions*w.Cols)}
	if err := Conv2DBatchInto(c, x, w, out); err != nil {
		return Matrix[T]{}, err
	}
	return out, nil
}

// Conv2DBatchInto is Conv2DBatch writing into a preallocated out of
// shape (B·OutH·OutW) × w.Cols; prior contents are overwritten.
func Conv2DBatchInto[T Element](c ConvShape, x, w, out Matrix[T]) error {
	if err := c.Validate(); err != nil {
		return err
	}
	inLen := c.InSize()
	if x.Cols != inLen {
		return fmt.Errorf("tensor: fused conv batch width %d, want %d", x.Cols, inLen)
	}
	if w.Rows != c.PatchSize() {
		return fmt.Errorf("tensor: fused conv kernel %dx%d, want %d rows", w.Rows, w.Cols, c.PatchSize())
	}
	positions := c.OutHeight() * c.OutWidth()
	if out.Rows != x.Rows*positions || out.Cols != w.Cols || len(out.Data) != x.Rows*positions*w.Cols {
		return fmt.Errorf("tensor: fused conv into %dx%d, want %dx%d", out.Rows, out.Cols, x.Rows*positions, w.Cols)
	}
	// Partition by output row, exactly like MatMul over the stacked
	// patch matrix: each goroutine owns whole rows, so per-element
	// accumulation order is the serial one.
	rows := x.Rows * positions
	ops := rows * c.PatchSize() * w.Cols
	if serialFor(rows, ops) {
		conv2DRows(c, x.Data, w, out, 0, rows)
		return nil
	}
	parallelFor(rows, ops, func(lo, hi int) {
		conv2DRows(c, x.Data, w, out, lo, hi)
	})
	return nil
}

// conv2DRows computes stacked output rows [lo, hi) of the fused
// convolution. Row i = s·positions + oy·OutW + ox is the dot product of
// sample s's receptive field at (oy, ox) with every kernel column.
func conv2DRows[T Element](c ConvShape, x []T, w, out Matrix[T], lo, hi int) {
	outW := c.OutWidth()
	positions := c.OutHeight() * outW
	hw := c.Height * c.Width
	inLen := c.InChannels * hw
	for i := lo; i < hi; i++ {
		s := i / positions
		p := i % positions
		oy := p / outW
		ox := p % outW
		img := x[s*inLen : (s+1)*inLen]
		outRow := out.Data[i*w.Cols : (i+1)*w.Cols]
		for j := range outRow {
			outRow[j] = 0
		}
		idx := 0
		for ch := 0; ch < c.InChannels; ch++ {
			base := ch * hw
			for ky := 0; ky < c.Kernel; ky++ {
				iy := oy*c.Stride + ky - c.Pad
				if iy < 0 || iy >= c.Height {
					// The whole kernel row falls in padding: the patch row
					// holds zeros here, which MatMul would skip.
					idx += c.Kernel
					continue
				}
				rowBase := base + iy*c.Width
				for kx := 0; kx < c.Kernel; kx++ {
					ix := ox*c.Stride + kx - c.Pad
					if ix >= 0 && ix < c.Width {
						if a := img[rowBase+ix]; a != 0 {
							wRow := w.Data[idx*w.Cols : (idx+1)*w.Cols]
							for j, b := range wRow {
								outRow[j] += a * b
							}
						}
					}
					idx++
				}
			}
		}
	}
}

// Col2ImBatch is the adjoint of Im2ColBatch: it folds a (B·P)×PatchSize
// patch gradient back into a batch matrix B×(InChannels·H·W).
func Col2ImBatch[T Element](c ConvShape, cols Matrix[T], batch int) (Matrix[T], error) {
	positions := c.OutHeight() * c.OutWidth()
	if cols.Rows != batch*positions || cols.Cols != c.PatchSize() {
		return Matrix[T]{}, fmt.Errorf("tensor: col2im batch shape %dx%d unexpected", cols.Rows, cols.Cols)
	}
	if err := c.Validate(); err != nil {
		return Matrix[T]{}, err
	}
	inLen := c.InSize()
	out := Matrix[T]{Rows: batch, Cols: inLen, Data: make([]T, batch*inLen)}
	parallelFor(batch, batch*positions*c.PatchSize(), func(lo, hi int) {
		for s := lo; s < hi; s++ {
			col2imPixels(c, cols.Data[s*positions*cols.Cols:(s+1)*positions*cols.Cols], out.Data[s*inLen:(s+1)*inLen], 0, inLen)
		}
	})
	return out, nil
}
