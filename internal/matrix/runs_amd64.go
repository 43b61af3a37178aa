package matrix

// haveAVX is read once, at package initialisation. The vector kernels
// need AVX1 only: VBROADCASTSD from memory, VMULPD and VADDPD.
var haveAVX = cpuHasAVX()

// cpuHasAVX reports whether the CPU has AVX and the OS saves its state.
func cpuHasAVX() bool

// mulRunAVX adds Σ_{t<k} a[t]·b[t·stride + j] to c[j] for j in [0, w),
// w a positive multiple of 4 and k > 0. It does no bounds checks.
//
//go:noescape
func mulRunAVX(c, a, b *float64, k, stride, w int)

// mulTileAVX adds Σ_{t<k} a[r·stride + t]·b[t·bstride + j] to
// c[r·stride + j] for rows r in [0, 4) and j in [0, w), w a positive
// multiple of 8 and k > 0, skipping no pivot. A and C share a row
// stride, B has its own. It does no bounds checks.
//
//go:noescape
func mulTileAVX(c, a, b *float64, k, stride, bstride, w int)

// mulRunVector computes a run's full 4-column groups on the AVX kernel
// and returns how many columns it took: none when the CPU lacks AVX or
// the run is narrower than 4 cells.
func mulRunVector(crow, arow, bp []float64, stride int) int {
	w := len(crow) &^ 3
	if !haveAVX || w == 0 || len(arow) == 0 {
		return 0
	}
	// The assembly reads B from bp[0] to the last row's last column and
	// writes C from crow[0] to crow[w-1]; both ends must be in range.
	_ = crow[w-1]
	_ = bp[(len(arow)-1)*stride+w-1]
	mulRunAVX(&crow[0], &arow[0], &bp[0], len(arow), stride, w)
	return w
}

// vectorTile returns the four-row tile kernel where the CPU has AVX, and
// nil where it has not.
func vectorTile() tileKernel {
	if haveAVX {
		return mulTileVector
	}
	return nil
}

// mulTileVector is the tileKernel on AVX: the run's full 8-column groups
// go through mulTileAVX.
func mulTileVector(c, a, bp []float64, n, bStride, kc, w int) int {
	w &^= 7
	if w == 0 {
		return 0
	}
	// The last C and A elements the assembly touches are in the fourth
	// row, the last B element in the chunk's last pivot row.
	_ = c[3*n+w-1]
	_ = a[3*n+kc-1]
	_ = bp[(kc-1)*bStride+w-1]
	mulTileAVX(&c[0], &a[0], &bp[0], kc, n, bStride, w)
	return w
}
