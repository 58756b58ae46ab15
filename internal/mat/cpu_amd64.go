//go:build amd64

package mat

// Runtime CPU probe shared by the assembly kernels (axpy_amd64.s,
// dot32_amd64.s, dotint8_amd64.s): each dispatches on hasAVX2 and keeps its portable Go
// loop as the fallback and as the reference its tests compare against.

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

var hasAVX2 = detectAVX2()

// detectAVX2 reports whether AVX2 kernels are safe to run: the CPU
// must advertise AVX2 (CPUID.7.0:EBX bit 5) and the OS must have
// enabled XMM+YMM state saving (OSXSAVE set and XCR0 bits 1-2), else
// executing VEX-encoded instructions faults.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	if ecx1&osxsave == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<5) != 0
}
