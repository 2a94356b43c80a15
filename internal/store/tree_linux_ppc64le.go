package store

import "syscall"

// The *at calls whose numbers differ by architecture (tree.go's renameat).
const sysRenameat, sysFstatat = syscall.SYS_RENAMEAT, syscall.SYS_NEWFSTATAT
