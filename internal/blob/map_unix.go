//go:build unix

package blob

import (
	"errors"
	"os"
	"syscall"
)

// stat is the identity and size of f, a regular file: fstat on the stack,
// where os.File.Stat would cost every open an allocation.
func stat(f *os.File) (dev, ino uint64, size int64, err error) {
	var st syscall.Stat_t
	err = syscall.Fstat(int(f.Fd()), &st)
	if err == nil && st.Mode&syscall.S_IFMT != syscall.S_IFREG {
		err = errors.ErrUnsupported
	}
	return uint64(st.Dev), uint64(st.Ino), int64(st.Size), err
}

func mmap(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmap(data []byte) { _ = syscall.Munmap(data) } // from a cleanup: no one to report to
