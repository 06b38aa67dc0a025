//go:build unix

package smartcrawl_test

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time (user + system) the test process has
// used so far.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
