//go:build !unix

package durable

import "os"

// die kills the current process the way crash_unix.go's SIGKILL does:
// Process.Kill terminates it at once (TerminateProcess on Windows), with
// no deferred functions, no file closing and no flushing.
func die() {
	if p, err := os.FindProcess(os.Getpid()); err == nil {
		p.Kill()
	}
	os.Exit(137) // only if the kill did not take; still runs nothing deferred
}
