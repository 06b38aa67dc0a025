package engine

import (
	"testing"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/fixture"
)

// FuzzValidatedRequestRuns: a request that Validate accepts must run —
// Run may return an error, never panic. crawld admits a job once Validate
// passes and its workers do not recover, so a panic here is a daemon
// crash (and a crash loop once the restart scan re-queues the job). The
// fuzzer drives both single-interface forms over the running-example
// universe: Hidden (a CSV file) and URL (a hiddenserver). Retries stay 0
// and the budget 5, so no run sleeps through a backoff.
func FuzzValidatedRequestRuns(f *testing.F) {
	hiddenPath, url := fixtureBackends(f)
	presets := append([]string{""}, deepweb.FaultPresetNames()...)

	// remote, k, theta, sample target, fuzzy, rate, burst, fault preset.
	// The first five once passed Validate and then panicked in Run.
	f.Add(true, 50, 0.005, 0, 0.0, 0.0, 10, uint8(0))   // remote, sample target 0: nil sample
	f.Add(false, 50, 0.0, 200, 0.0, 0.0, 10, uint8(0))  // theta 0: Bernoulli(0)
	f.Add(false, 50, 1.5, 200, 0.0, 0.0, 10, uint8(0))  // theta above 1
	f.Add(false, 0, 0.005, 200, 0.0, 0.0, 10, uint8(0)) // k 0: simulator without a limit
	f.Add(true, 50, 0.005, 2, 2.0, 0.0, 10, uint8(0))   // fuzzy 2: Jaccard threshold above 1
	f.Add(false, 2, 1.0, 0, 0.5, 5.0, 1, uint8(3))      // paced, faulted, fuzzy
	f.Add(true, 2, 0.5, 2, 1.0, 1e-9, 1, uint8(4))      // paced to a stop, faulted
	f.Fuzz(func(t *testing.T, remote bool, k int, theta float64, sampleTarget int,
		fuzzy, rate float64, burst int, faults uint8) {
		req := Defaults()
		req.Local = fixture.New().Local
		req.Budget, req.Retries = 5, 0
		req.K, req.Theta, req.Fuzzy, req.Rate, req.Burst = k, theta, fuzzy, rate, burst
		// The keyword sampler loops up to 1000 draws per target record;
		// the remainder keeps the sign and bounds the work.
		req.SampleTarget = sampleTarget % 64
		req.Faults = presets[int(faults)%len(presets)]
		if remote {
			req.URL, req.EnrichColumns = url, []string{"col1"}
		} else {
			req.Hidden, req.RankColumn, req.EnrichColumns = hiddenPath, 1, []string{"rating"}
		}
		if req.Validate() != nil {
			return
		}
		Run(&req) //nolint:errcheck — only a panic fails
	})
}
