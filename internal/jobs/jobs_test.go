package jobs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/dataset"
	"smartcrawl/internal/relational"
)

// Shared fixture: one DBLP instance rendered to CSV, generated once.
var (
	fixtureOnce sync.Once
	fixtureErr  error
	localCSVStr string // inline form, for local_csv submissions
	localPath   string // file form, for local_path submissions
	hiddenPath  string
	fixRankCol  int
)

func fixtures(t *testing.T) {
	t.Helper()
	fixtureOnce.Do(func() {
		in, err := dataset.GenerateDBLP(dataset.DBLPConfig{
			CorpusSize: 1600, HiddenSize: 420, LocalSize: 110, Seed: 9,
		})
		if err != nil {
			fixtureErr = err
			return
		}
		fixRankCol = in.RankColumn
		dir, err := os.MkdirTemp("", "jobsfix-*")
		if err != nil {
			fixtureErr = err
			return
		}
		var buf bytes.Buffer
		if err := in.Local.WriteCSV(&buf); err != nil {
			fixtureErr = err
			return
		}
		localCSVStr = buf.String()
		localPath = filepath.Join(dir, "local.csv")
		hiddenPath = filepath.Join(dir, "hidden.csv")
		if err := os.WriteFile(localPath, buf.Bytes(), 0o644); err != nil {
			fixtureErr = err
			return
		}
		buf.Reset()
		if err := in.Hidden.WriteCSV(&buf); err != nil {
			fixtureErr = err
			return
		}
		fixtureErr = os.WriteFile(hiddenPath, buf.Bytes(), 0o644)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
}

// baseSpec is a fast, fully deterministic simulated-backend job.
func baseSpec(seed uint64) Spec {
	return Spec{
		LocalCSV: localCSVStr,
		Hidden:   hiddenPath,
		Budget:   24,
		Theta:    0.03,
		Seed:     seed,
		Batch:    4,
		Workers:  2,
	}
}

// waitState polls until the job reaches a terminal state.
func waitState(t *testing.T, m *Manager, id string) *Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		j := m.Get(id)
		if j == nil {
			t.Fatalf("job %s disappeared", id)
		}
		if j.State.Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func readJobFile(t *testing.T, dir, id, name string) []byte {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join(dir, "jobs", id, name))
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// canonicalCP loads a checkpoint and re-serializes it at journal seq 0:
// raw snapshot bytes differ between runs compacted at different journal
// positions; the canonical form must not.
func canonicalCP(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := crawler.LoadResult(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := crawler.SaveResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJobLifecycle walks one job through the happy path against the
// in-process simulator and checks the persisted artifacts.
func TestJobLifecycle(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Workers: 1, AllowLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain()

	job, err := m.Submit(baseSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateQueued {
		t.Fatalf("fresh job state = %s, want queued", job.State)
	}
	done := waitState(t, m, job.ID)
	if done.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", done.State, done.Error)
	}
	if done.Charged <= 0 || done.Charged > 24 {
		t.Errorf("charged %d, want in (0, 24]", done.Charged)
	}
	if done.Enriched <= 0 || done.LocalLen != 110 {
		t.Errorf("report enriched=%d local_len=%d", done.Enriched, done.LocalLen)
	}
	out := readJobFile(t, dir, job.ID, "out.csv")
	if !bytes.Contains(out, []byte("h_")) {
		t.Errorf("enriched output has no h_ columns:\n%.200s", out)
	}
	// The enriched table must still parse and keep every local row.
	tab, err := relational.ReadCSV("out", bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 110 {
		t.Errorf("output rows = %d, want 110", tab.Len())
	}
	if len(canonicalCP(t, filepath.Join(dir, "jobs", job.ID, "cp.bin"))) == 0 {
		t.Error("empty canonical checkpoint")
	}
	// Tenant settlement released the unspent reservation.
	if got := m.TenantReserved("default"); got != done.Charged {
		t.Errorf("tenant reserved = %d after settle, want charged %d", got, done.Charged)
	}
}

// TestJobEventsStream asserts the progress feed: every issued query
// appears exactly once, in order, with a strictly increasing seq, and the
// stream's cumulative coverage matches the final report.
func TestJobEventsStream(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Workers: 1, AllowLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain()

	job, err := m.Submit(baseSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	// Stream from the start, following live until the job settles.
	var evs []StepEvent
	from := 1
	for {
		batch, st, ok := m.Steps(job.ID, from)
		if !ok {
			t.Fatal("job unknown to Steps")
		}
		evs = append(evs, batch...)
		if len(batch) > 0 {
			from = batch[len(batch)-1].Seq + 1
		}
		if st.Terminal() {
			break
		}
	}
	done := m.Get(job.ID)
	if done.State != StateDone {
		t.Fatalf("job finished %s, want done", done.State)
	}
	if len(evs) != done.Charged {
		t.Fatalf("streamed %d steps, job charged %d", len(evs), done.Charged)
	}
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Query == "" {
			t.Errorf("event %d has empty query", i)
		}
	}
	last := evs[len(evs)-1]
	if last.Cumulative != done.Enriched {
		t.Errorf("final cumulative coverage %d, report enriched %d", last.Cumulative, done.Enriched)
	}
	// A replay from an arbitrary offset returns the identical suffix.
	tail, st, _ := m.Steps(job.ID, len(evs)/2+1)
	if !st.Terminal() {
		t.Errorf("replay state = %s, want terminal", st)
	}
	for i, ev := range tail {
		if want := evs[len(evs)/2+i]; ev != want {
			t.Fatalf("replay event %d = %+v, want %+v", i, ev, want)
		}
	}
}

// TestCancelRunningJob cancels a paced job mid-crawl and expects a
// settled canceled state with a resumable checkpoint on disk.
func TestCancelRunningJob(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Workers: 1, AllowLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain()

	sp := baseSpec(3)
	sp.Rate, sp.Burst = 50, 1 // ~20ms per query: plenty of time to cancel
	job, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually crawling (first step observed), then cancel.
	if _, st, ok := m.Steps(job.ID, 1); !ok || st.Terminal() {
		t.Fatalf("job settled before cancel (state %s)", st)
	}
	if !m.Cancel(job.ID) {
		t.Fatal("cancel refused")
	}
	done := waitState(t, m, job.ID)
	if done.State != StateCanceled {
		t.Fatalf("state after cancel = %s, want canceled", done.State)
	}
	if done.Charged <= 0 || done.Charged >= 24 {
		t.Errorf("canceled job charged %d, want partial spend", done.Charged)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", job.ID, "cp.bin")); err != nil {
		t.Errorf("canceled job has no checkpoint: %v", err)
	}
	// Canceling a settled job is refused.
	if m.Cancel(job.ID) {
		t.Error("second cancel succeeded")
	}
}

// TestSubmitValidation exercises the misuse rejections that must be
// wire-level errors, not failed jobs.
func TestSubmitValidation(t *testing.T) {
	fixtures(t)
	m, err := Open(Config{Dir: t.TempDir(), Workers: 1, AllowLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain()
	mNoLocal, err := Open(Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mNoLocal.Drain()

	cases := []struct {
		name string
		mgr  *Manager
		mut  func(*Spec)
		want string
	}{
		{"no local", m, func(sp *Spec) { sp.LocalCSV, sp.LocalPath = "", "" }, "local_csv"},
		{"both locals", m, func(sp *Spec) { sp.LocalPath = localPath }, "local_csv"},
		{"no interface", m, func(sp *Spec) { sp.Hidden = "" }, "exactly one"},
		{"two interfaces", m, func(sp *Spec) { sp.URL = "http://localhost:1" }, "exactly one"},
		{"interfaces plus hidden", m, func(sp *Spec) { sp.Interfaces = "name=a,hidden=" + hiddenPath }, "replaces"},
		{"bad strategy", m, func(sp *Spec) { sp.Strategy = "psychic" }, "strategy"},
		{"bad workers", m, func(sp *Spec) { sp.Workers = -1 }, "Workers"},
		{"bad csv", m, func(sp *Spec) { sp.LocalCSV = "a,b\n\"torn" }, "parsing local_csv"},
		{"local backend gated", mNoLocal, func(*Spec) {}, "allow-local-backends"},
		{"federated hidden gated", mNoLocal, func(sp *Spec) {
			sp.Hidden = ""
			sp.Interfaces = "name=a,hidden=" + hiddenPath
		}, "allow-local-backends"},
		// Admitted, this remote job would panic its worker (and, re-queued
		// by the restart scan, every later one) building the matcher.
		{"fuzzy above one", mNoLocal, func(sp *Spec) {
			sp.Hidden, sp.URL, sp.Fuzzy = "", "http://localhost:1", 2
		}, "Fuzzy must be in [0, 1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := baseSpec(1)
			tc.mut(&sp)
			if _, err := tc.mgr.Submit(sp); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Submit err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

// TestRecoveryScan restarts a manager over a populated data dir and
// checks the registry survives: finished jobs stay finished, their
// outputs intact, and the ID sequence continues without collision.
func TestRecoveryScan(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Workers: 2, AllowLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Submit(baseSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(baseSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	outA := readJobFile(t, dir, waitState(t, m, a.ID).ID, "out.csv")
	waitState(t, m, b.ID)
	m.Drain()

	m2, err := Open(Config{Dir: dir, Workers: 2, AllowLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Drain()
	if got := len(m2.List()); got != 2 {
		t.Fatalf("recovered %d jobs, want 2", got)
	}
	if j := m2.Get(a.ID); j == nil || j.State != StateDone {
		t.Fatalf("job %s not done after restart: %+v", a.ID, j)
	}
	if !bytes.Equal(readJobFile(t, dir, a.ID, "out.csv"), outA) {
		t.Error("restart disturbed a finished job's output")
	}
	// Tenant accounting rebuilt from settled charges.
	ja, jb := m2.Get(a.ID), m2.Get(b.ID)
	if got := m2.TenantReserved("default"); got != ja.Charged+jb.Charged {
		t.Errorf("tenant reserved = %d, want %d", got, ja.Charged+jb.Charged)
	}
	// New submissions continue the ID sequence.
	c, err := m2.Submit(baseSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if c.ID <= b.ID {
		t.Errorf("new job ID %s does not extend sequence past %s", c.ID, b.ID)
	}
	if waitState(t, m2, c.ID).State != StateDone {
		t.Error("post-restart job did not complete")
	}
}

func TestMetricsSnapshot(t *testing.T) {
	fixtures(t)
	m, err := Open(Config{Dir: t.TempDir(), Workers: 1, TenantBudget: 1000, AllowLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Drain()
	job, err := m.Submit(baseSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, job.ID)
	snap := m.MetricsSnapshot()
	if snap["done"] != 1 {
		t.Errorf("snapshot done = %v, want 1", snap["done"])
	}
	tenants := snap["tenants"].(map[string]any)
	def := tenants["default"].(map[string]any)
	if def["cap"] != 1000 {
		t.Errorf("tenant cap = %v", def["cap"])
	}
	if fmt.Sprint(def["reserved"]) != fmt.Sprint(m.Get(job.ID).Charged) {
		t.Errorf("tenant reserved = %v, want settled charge %d", def["reserved"], m.Get(job.ID).Charged)
	}
}
