//go:build unix

package durable

import (
	"os"
	"syscall"
)

// die SIGKILLs the current process — the real thing, not an exit: no
// deferred functions, no file closing, no flushing, exactly what an OOM
// kill or power-cut-with-surviving-page-cache looks like to the next
// process.
func die() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // unreachable; belt and braces if the signal is slow
}
