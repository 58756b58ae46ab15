//go:build amd64

package mat

// Runtime CPU probe shared by the assembly kernels (axpy_amd64.s,
// dot32_amd64.s, dotint8_amd64.s): each dispatches on hasAVX2 and keeps its portable Go
// loop as the fallback and as the reference its tests compare against.
// The packed product (mul_amd64.s) dispatches on hasAVX512 and keeps the
// axpy4 loop.

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

var hasAVX2 = detectAVX2()

// hasAVX512 is a variable, not a constant, so the tests can switch the
// packed product off and check the path a CPU without AVX-512 runs.
var hasAVX512 = hasAVX2 && detectAVX512()

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

// detectAVX512 reports whether the AVX-512F tile kernel is safe to run:
// the CPU must advertise AVX512F (CPUID.7.0:EBX bit 16) and the OS must
// save the opmask and all 32 ZMM registers (XCR0 bits 5-7) besides the
// XMM and YMM state detectAVX2 checks.
func detectAVX512() bool {
	if lo, _ := xgetbv0(); lo&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<16) != 0
}
