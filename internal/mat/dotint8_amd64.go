//go:build amd64

package mat

// Runtime dispatch for the quantized-scan kernel: DotInt8Blocked routes
// to the AVX2 implementation in dotint8_amd64.s when the CPU and OS
// both support it, and to the portable scalar loop otherwise. Both
// paths accumulate in exact int32 lanes, so they return identical
// results — TestDotInt8BlockedMatchesGeneric cross-checks them on
// every test run of an AVX2 machine.

//go:noescape
func dotInt8BlockedAVX2(q *int16, codes *int8, dots *int32, dim, rows, dim16 int)
