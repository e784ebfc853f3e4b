package tensor

import (
	"math/rand"
	"testing"
)

func paperConv() ConvShape {
	// Table I: 28×28 input, kernel 5×5, padding 2, 5 output channels,
	// producing 14×14 spatial output (implying stride 2).
	return ConvShape{InChannels: 1, Height: 28, Width: 28, Kernel: 5, Stride: 2, Pad: 2}
}

func TestConvShapeValidate(t *testing.T) {
	tests := []struct {
		name    string
		give    ConvShape
		wantErr bool
	}{
		{name: "paper", give: paperConv()},
		{name: "zero kernel", give: ConvShape{InChannels: 1, Height: 4, Width: 4, Kernel: 0, Stride: 1}, wantErr: true},
		{name: "negative pad", give: ConvShape{InChannels: 1, Height: 4, Width: 4, Kernel: 3, Stride: 1, Pad: -1}, wantErr: true},
		{name: "kernel too big", give: ConvShape{InChannels: 1, Height: 2, Width: 2, Kernel: 5, Stride: 1}, wantErr: true},
		{name: "no channels", give: ConvShape{Height: 4, Width: 4, Kernel: 3, Stride: 1}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.give.Validate()
			if gotErr := err != nil; gotErr != tt.wantErr {
				t.Fatalf("Validate() err=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestPaperConvOutputShape(t *testing.T) {
	c := paperConv()
	if c.OutHeight() != 14 || c.OutWidth() != 14 {
		t.Fatalf("paper conv output %dx%d, want 14x14 (Table I)", c.OutHeight(), c.OutWidth())
	}
	if c.PatchSize() != 25 {
		t.Fatalf("patch size %d, want 25", c.PatchSize())
	}
}

func TestIm2ColKnownValues(t *testing.T) {
	// 1-channel 3×3 image, 2×2 kernel, stride 1, no padding: 4 patches.
	c := ConvShape{InChannels: 1, Height: 3, Width: 3, Kernel: 2, Stride: 1}
	img, _ := FromSlice(1, 9, []int64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	cols, err := c.Im2Col(img)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromSlice(4, 4, []int64{
		1, 2, 4, 5,
		2, 3, 5, 6,
		4, 5, 7, 8,
		5, 6, 8, 9,
	})
	if !cols.Equal(want) {
		t.Fatalf("Im2Col = %v, want %v", cols.Data, want.Data)
	}
}

func TestIm2ColPadding(t *testing.T) {
	// 2×2 image, 2×2 kernel, stride 2, pad 1 → 2×2 output positions,
	// corners of the padded image.
	c := ConvShape{InChannels: 1, Height: 2, Width: 2, Kernel: 2, Stride: 2, Pad: 1}
	img, _ := FromSlice(1, 4, []int64{1, 2, 3, 4})
	cols, err := c.Im2Col(img)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromSlice(4, 4, []int64{
		0, 0, 0, 1,
		0, 0, 2, 0,
		0, 3, 0, 0,
		4, 0, 0, 0,
	})
	if !cols.Equal(want) {
		t.Fatalf("Im2Col with padding = %v, want %v", cols.Data, want.Data)
	}
}

func TestIm2ColMultiChannel(t *testing.T) {
	c := ConvShape{InChannels: 2, Height: 2, Width: 2, Kernel: 2, Stride: 1}
	img, _ := FromSlice(2, 4, []int64{
		1, 2, 3, 4, // channel 0
		5, 6, 7, 8, // channel 1
	})
	cols, err := c.Im2Col(img)
	if err != nil {
		t.Fatal(err)
	}
	// One output position; patch is channel 0 then channel 1.
	want, _ := FromSlice(1, 8, []int64{1, 2, 3, 4, 5, 6, 7, 8})
	if !cols.Equal(want) {
		t.Fatalf("multi-channel Im2Col = %v, want %v", cols.Data, want.Data)
	}
}

func TestIm2ColShapeMismatch(t *testing.T) {
	c := paperConv()
	if _, err := c.Im2Col(MustNew[int64](1, 100)); err == nil {
		t.Fatal("Im2Col with wrong image size: want error")
	}
}

// Col2Im must be the adjoint of Im2Col: <Im2Col(x), y> == <x, Col2Im(y)>.
func TestCol2ImAdjoint(t *testing.T) {
	c := ConvShape{InChannels: 2, Height: 5, Width: 4, Kernel: 3, Stride: 2, Pad: 1}
	x := MustNew[int64](2, 20)
	for i := range x.Data {
		x.Data[i] = int64(i*7%13 - 6)
	}
	y := MustNew[int64](c.OutHeight()*c.OutWidth(), c.PatchSize())
	for i := range y.Data {
		y.Data[i] = int64(i*5%11 - 5)
	}
	xc, err := c.Im2Col(x)
	if err != nil {
		t.Fatal(err)
	}
	yi, err := c.Col2Im(y)
	if err != nil {
		t.Fatal(err)
	}
	var left, right int64
	for i := range xc.Data {
		left += xc.Data[i] * y.Data[i]
	}
	for i := range x.Data {
		right += x.Data[i] * yi.Data[i]
	}
	if left != right {
		t.Fatalf("adjoint identity violated: %d != %d", left, right)
	}
}

func TestCol2ImShapeMismatch(t *testing.T) {
	c := paperConv()
	if _, err := c.Col2Im(MustNew[int64](3, 3)); err == nil {
		t.Fatal("Col2Im with wrong shape: want error")
	}
}

func TestConvViaIm2ColMatchesDirect(t *testing.T) {
	// Cross-check the lowered convolution against a naive direct one.
	c := ConvShape{InChannels: 1, Height: 4, Width: 4, Kernel: 3, Stride: 1, Pad: 1}
	img, _ := FromSlice(1, 16, []int64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	})
	kernel, _ := FromSlice(1, 9, []int64{0, 1, 0, 1, -4, 1, 0, 1, 0}) // Laplacian

	cols, err := c.Im2Col(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cols.MatMul(kernel.Transpose())
	if err != nil {
		t.Fatal(err)
	}

	direct := MustNew[int64](c.OutHeight()*c.OutWidth(), 1)
	for oy := 0; oy < c.OutHeight(); oy++ {
		for ox := 0; ox < c.OutWidth(); ox++ {
			var acc int64
			for ky := 0; ky < 3; ky++ {
				for kx := 0; kx < 3; kx++ {
					iy, ix := oy+ky-1, ox+kx-1
					if iy < 0 || iy >= 4 || ix < 0 || ix >= 4 {
						continue
					}
					acc += img.At(0, iy*4+ix) * kernel.At(0, ky*3+kx)
				}
			}
			direct.Set(oy*c.OutWidth()+ox, 0, acc)
		}
	}
	if !got.Equal(direct) {
		t.Fatalf("im2col conv %v != direct conv %v", got.Data, direct.Data)
	}
}

func TestFloatConvHelpers(t *testing.T) {
	c := ConvShape{InChannels: 1, Height: 3, Width: 3, Kernel: 2, Stride: 1}
	img, _ := FromSlice(1, 9, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	cols, err := c.Im2ColFloat(img)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.Col2ImFloat(cols)
	if err != nil {
		t.Fatal(err)
	}
	// Center pixel (5) appears in all four patches.
	if back.At(0, 4) != 4*5 {
		t.Fatalf("Col2ImFloat center = %v, want 20", back.At(0, 4))
	}
}

// The secure convolution opens x − a at image shape and lowers the
// public difference, which is sound because the lowering is linear in
// the ring: im2col(x) − im2col(a) = im2col(x − a), and the convolution
// splits over x = (x − a) + a. Checked with full-range ring elements,
// so every subtraction and product wraps, over random geometries.
func TestConvLinearInTheRing(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ring := func(rows, cols int) Matrix[int64] {
		m := MustNew[int64](rows, cols)
		for i := range m.Data {
			m.Data[i] = int64(rng.Uint64())
		}
		return m
	}
	for trial := 0; trial < 24; trial++ {
		var c ConvShape
		for {
			c = ConvShape{
				InChannels: 2 + rng.Intn(2),
				Height:     3 + rng.Intn(8),
				Width:      3 + rng.Intn(8),
				Kernel:     1 + rng.Intn(4),
				Stride:     1 + rng.Intn(3),
				Pad:        rng.Intn(3),
			}
			if c.Validate() == nil {
				break
			}
		}
		batch := []int{1, 3, 8}[trial%3]
		x, a := ring(batch, c.InSize()), ring(batch, c.InSize())
		w := ring(c.PatchSize(), 1+rng.Intn(4))
		e, err := x.Sub(a)
		if err != nil {
			t.Fatal(err)
		}

		lowX, err := Im2ColBatch(c, x)
		if err != nil {
			t.Fatal(err)
		}
		lowA, err := Im2ColBatch(c, a)
		if err != nil {
			t.Fatal(err)
		}
		lowE, err := Im2ColBatch(c, e)
		if err != nil {
			t.Fatal(err)
		}
		diff, err := lowX.Sub(lowA)
		if err != nil {
			t.Fatal(err)
		}
		if !diff.Equal(lowE) {
			t.Fatalf("%+v batch %d: im2col(x) − im2col(a) != im2col(x − a)", c, batch)
		}

		convX, err := Conv2DBatch(c, x, w)
		if err != nil {
			t.Fatal(err)
		}
		convE, err := Conv2DBatch(c, e, w)
		if err != nil {
			t.Fatal(err)
		}
		convA, err := Conv2DBatch(c, a, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := convE.AddInPlace(convA); err != nil {
			t.Fatal(err)
		}
		if !convE.Equal(convX) {
			t.Fatalf("%+v batch %d: conv(x − a, w) + conv(a, w) != conv(x, w)", c, batch)
		}
	}
}
