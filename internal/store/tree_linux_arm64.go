package store

import "syscall"

// The *at calls whose numbers differ by architecture: arm64 has no renameat.
const sysRenameat, sysFstatat = syscall.SYS_RENAMEAT2, syscall.SYS_FSTATAT
