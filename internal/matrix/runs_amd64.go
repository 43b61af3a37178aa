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

// mulTileAVX adds Σ_{t<k} a[r·stride + t]·b[t·stride + j] to
// c[r·stride + j] for rows r in [0, 4) and j in [0, w), w a positive
// multiple of 8 and k > 0, skipping no pivot. It does no bounds checks.
//
//go:noescape
func mulTileAVX(c, a, b *float64, k, stride, w int)

// mulRunVector computes a run's full 4-column groups on the AVX kernel
// and returns the first column it left to the portable kernel: j0 itself
// when the CPU lacks AVX or the run is narrower than 4 cells.
func mulRunVector(crow, arow, bp []float64, n, j0, j1 int) int {
	w := (j1 - j0) &^ 3
	if !haveAVX || w == 0 || len(arow) == 0 {
		return j0
	}
	// The assembly reads B from bp[j0] to the last row's last column and
	// writes C from crow[j0] to crow[j0+w-1]; both ends must be in range.
	_ = crow[j0+w-1]
	_ = bp[(len(arow)-1)*n+j0+w-1]
	mulRunAVX(&crow[j0], &arow[0], &bp[j0], len(arow), n, w)
	return j0 + w
}

// vectorTile returns the four-row tile kernel where the CPU has AVX, and
// nil where it has not.
func vectorTile() tileKernel {
	if haveAVX {
		return mulTileVector
	}
	return nil
}

// mulTileVector is the tileKernel on AVX: the full 8-column groups of
// [j0, j1) go through mulTileAVX.
func mulTileVector(c, a, bp []float64, n, kc, j0, j1 int) int {
	w := (j1 - j0) &^ 7
	if w == 0 {
		return j0
	}
	// The last C and A elements the assembly touches are in the fourth
	// row, the last B element in the chunk's last pivot row.
	_ = c[3*n+j0+w-1]
	_ = a[3*n+kc-1]
	_ = bp[(kc-1)*n+j0+w-1]
	mulTileAVX(&c[j0], &a[0], &bp[j0], kc, n, w)
	return j0 + w
}
