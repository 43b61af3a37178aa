//go:build !amd64

package matrix

// mulRunVector leaves every column to the portable kernel: there is no
// vector kernel off amd64.
func mulRunVector(crow, arow, bp []float64, stride int) int { return 0 }

// vectorTile returns nil: off amd64 every row runs alone.
func vectorTile() tileKernel { return nil }
