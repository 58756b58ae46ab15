//go:build !unix

package blob

import (
	"errors"
	"os"
)

func stat(*os.File) (dev, ino uint64, size int64, err error) { return 0, 0, 0, errors.ErrUnsupported }
func mmap(*os.File, int) ([]byte, error)                     { return nil, errors.ErrUnsupported }
func munmap([]byte)                                          {}
