package store

import "syscall"

// The *at calls whose numbers differ by architecture: 386's Stat_t is the
// kernel's stat64, which fstatat64 fills.
const sysRenameat, sysFstatat = syscall.SYS_RENAMEAT, syscall.SYS_FSTATAT64
