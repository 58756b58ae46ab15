//go:build amd64

package mat

//go:noescape
func mulTileAVX512(a *float64, lda, inc int, b *float64, kc int, c *float64, ldc int)

//go:noescape
func solvePanelAVX512(x *float64, ldx int, r *float64, ldr, w int, t *float64)
