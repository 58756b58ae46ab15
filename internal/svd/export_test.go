package svd

// Helpers of this package's tests lent to engines_test.go (package
// svd_test).
var (
	RandDense = randDense
	CheckSVD  = checkSVD
)
