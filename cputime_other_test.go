//go:build !unix

package smartcrawl_test

import "time"

var processStart = time.Now()

// processCPU falls back to the wall clock where getrusage does not
// exist: the overhead budgets then compare wall-clock timings.
func processCPU() (time.Duration, error) { return time.Since(processStart), nil }
