//go:build amd64

package mat

//go:noescape
func mulTileAVX512(a *float64, lda int, b *float64, kc int, c *float64, ldc int)
