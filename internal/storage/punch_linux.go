package storage

import "syscall"

// punch deallocates n bytes at offset at of the file fd, keeping its
// size (FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE).
func punch(fd uintptr, at, n int64) error { return syscall.Fallocate(int(fd), 0x3, at, n) }
