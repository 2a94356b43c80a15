package store

import "syscall"

// The *at calls whose numbers differ by architecture: riscv64 has no
// renameat, and renameat2's flags argument is the 0 tree.go passes.
const sysRenameat, sysFstatat = syscall.SYS_RENAMEAT2, syscall.SYS_FSTATAT
