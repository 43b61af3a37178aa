//go:build !amd64

package matrix

// mulRunVector leaves every column to the portable kernel: there is no
// vector kernel off amd64.
func mulRunVector(crow, arow, bp []float64, n, j0, j1 int) int { return j0 }
