//go:build !linux

package storage

import "errors"

// punch cannot deallocate part of a file here: extents stay until Close.
func punch(uintptr, int64, int64) error { return errors.ErrUnsupported }
