package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartcrawl/internal/index"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

func testTable(rows ...string) *relational.Table {
	t := relational.NewTable("local", []string{"title"})
	for _, r := range rows {
		t.Append(r)
	}
	return t
}

// TestRequestValidate covers Request.Validate one rule per row: each row
// changes a valid request in one way and names the error it must cause
// ("" for a request that stays valid).
func TestRequestValidate(t *testing.T) {
	const fed = "name=a,hidden=a.csv;name=b,hidden=b.csv"
	cases := []struct {
		name string
		edit func(r *Request)
		want string
	}{
		{"valid", func(r *Request) {}, ""},
		{"valid remote", func(r *Request) { r.Hidden, r.URL = "", "http://localhost:8081" }, ""},
		{"valid federated", func(r *Request) { r.Hidden, r.Interfaces = "", fed }, ""},
		{"valid sampled pool", func(r *Request) { r.PoolSample, r.CorpusCache = 10, "d.scorp" }, ""},
		{"valid sample-free", func(r *Request) { r.Theta = 0 }, ""},
		{"valid remote ignores k", func(r *Request) { r.Hidden, r.URL, r.K = "", "http://localhost:8081", 0 }, ""},
		{"nil local", func(r *Request) { r.Local = nil }, "empty local table"},
		{"empty local", func(r *Request) { r.Local = testTable() }, "empty local table"},
		{"interfaces with hidden", func(r *Request) { r.Interfaces = fed }, "Interfaces replaces Hidden/URL"},
		{"interfaces with faults", func(r *Request) { r.Hidden, r.Interfaces, r.Faults = "", fed, "transient10" }, "per interface"},
		{"interfaces with breaker", func(r *Request) { r.Hidden, r.Interfaces, r.Breaker = "", fed, 0 }, "per interface"},
		{"bad interfaces spec", func(r *Request) { r.Hidden, r.Interfaces = "", "name=a,bogus=1" }, "bogus"},
		{"neither hidden nor url", func(r *Request) { r.Hidden = "" }, "exactly one of Hidden and URL"},
		{"both hidden and url", func(r *Request) { r.URL = "http://localhost:8081" }, "exactly one of Hidden and URL"},
		{"naive with checkpoint", func(r *Request) { r.Strategy, r.Checkpoint = "naive", "c.json" }, "checkpoints support"},
		{"full federated", func(r *Request) { r.Strategy, r.Hidden, r.Interfaces = "full", "", fed }, "federation supports"},
		{"unknown strategy", func(r *Request) { r.Strategy = "greedy" }, `unknown strategy "greedy"`},
		{"zero workers", func(r *Request) { r.Workers = 0 }, "Workers must be >= 1"},
		{"negative batch", func(r *Request) { r.Batch = -1 }, "Batch must be >= 0"},
		{"negative budget", func(r *Request) { r.Budget = -1 }, "Budget must be >= 0"},
		{"negative retries", func(r *Request) { r.Retries = -1 }, "Retries must be >= 0"},
		{"negative rate", func(r *Request) { r.Rate = -1 }, "Rate must be >= 0"},
		{"negative deadline", func(r *Request) { r.Deadline = -1 }, "Deadline must be >= 0"},
		{"negative query timeout", func(r *Request) { r.QueryTimeout = -1 }, "QueryTimeout must be >= 0"},
		{"negative retry budget", func(r *Request) { r.RetryBudget = -1 }, "RetryBudget must be >= 0"},
		{"health without federation", func(r *Request) { r.Health = true }, "Health scoring requires a federated crawl"},
		{"negative shards", func(r *Request) { r.Shards = -1 }, "Shards must be >= 0"},
		{"negative pool sample", func(r *Request) { r.PoolSample, r.CorpusCache = -1, "d.scorp" }, "PoolSample must be >= 0"},
		{"pool sample without corpus cache", func(r *Request) { r.PoolSample = 10 }, "PoolSample requires CorpusCache"},
		{"wal without checkpoint", func(r *Request) { r.WAL = "j.wal" }, "WAL requires Checkpoint"},
		{"unknown wal sync", func(r *Request) { r.WALSync = "sometimes" }, "WALSync must be"},
		{"negative autosave", func(r *Request) { r.Autosave = -1 }, "Autosave must be >= 0"},
		{"bad fault profile", func(r *Request) { r.Faults = "nonsense" }, "nonsense"},
		{"zero k", func(r *Request) { r.K = 0 }, "k must be > 0"},
		{"theta above one", func(r *Request) { r.Theta = 1.5 }, "theta must be in [0, 1]"},
		{"negative theta", func(r *Request) { r.Theta = -0.1 }, "theta must be in [0, 1]"},
		{"negative sample target", func(r *Request) { r.Hidden, r.URL, r.SampleTarget = "", "http://localhost:8081", -1 }, "sample-target must be >= 0"},
		{"remote without a sample", func(r *Request) { r.Hidden, r.URL, r.SampleTarget = "", "http://localhost:8081", 0 }, "no interface supplies the hidden schema"},
		{"federation without a schema source", func(r *Request) { r.Hidden, r.Interfaces = "", "url=http://a;url=http://b" }, "no interface supplies the hidden schema"},
		{"rate without burst", func(r *Request) { r.Rate, r.Burst = 5, 0 }, "burst must be > 0"},
		{"fuzzy above one", func(r *Request) { r.Fuzzy = 2 }, "Fuzzy must be in [0, 1]"},
		{"negative fuzzy", func(r *Request) { r.Fuzzy = -0.5 }, "Fuzzy must be in [0, 1]"},
		{"federated theta above one", func(r *Request) { r.Hidden, r.Interfaces = "", "hidden=a.csv,theta=2" }, "theta must be in [0, 1]"},
		{"total budget without checkpoint", func(r *Request) { r.TotalBudget = true }, "TotalBudget requires Checkpoint"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := Defaults()
			req.Local, req.Hidden = testTable("deep web crawling"), "hidden.csv"
			c.edit(&req)
			err := req.Validate()
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("Validate() = %v, want nil", err)
			case c.want != "" && err == nil:
				t.Fatalf("Validate() = nil, want an error containing %q", c.want)
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Fatalf("Validate() = %q, want it to contain %q", err, c.want)
			}
		})
	}
}

// TestOpenOrBuildCorpus: a missing cache is built from the table, an
// existing one is reopened without a rebuild, and a cache over a table of
// another size is refused as stale.
func TestOpenOrBuildCorpus(t *testing.T) {
	tk := tokenize.New()
	local := testTable("deep web crawling", "keyword queries", "data enrichment", "deep data")
	path := filepath.Join(t.TempDir(), "local.scorp")

	var log bytes.Buffer
	cf, err := openOrBuildCorpus(path, local, tk, &log)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "corpus cache built") {
		t.Fatalf("missing cache not built; log:\n%s", log.String())
	}
	if cf.Records() != local.Len() {
		t.Fatalf("built cache indexes %d records, want %d", cf.Records(), local.Len())
	}
	want := index.ScanDict(local.Records, tk)
	if cf.Dict.Len() != want.Len() {
		t.Fatalf("built cache has %d terms, a scan of the table %d", cf.Dict.Len(), want.Len())
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	log.Reset()
	cf, err = openOrBuildCorpus(path, local, tk, &log)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(log.String(), "built") {
		t.Fatalf("existing cache rebuilt; log:\n%s", log.String())
	}
	if again, err := os.Stat(path); err != nil || !again.ModTime().Equal(st.ModTime()) || again.Size() != st.Size() {
		t.Fatalf("reopening changed the cache file: %v", err)
	}
	if cf.Records() != local.Len() {
		t.Fatalf("reopened cache indexes %d records, want %d", cf.Records(), local.Len())
	}
	cf.Close()

	bigger := testTable("deep web crawling", "keyword queries", "data enrichment", "deep data", "one more")
	if cf, err := openOrBuildCorpus(path, bigger, tk, &log); err == nil {
		cf.Close()
		t.Fatal("a cache built over a 4-record table opened for a 5-record one")
	} else if !strings.Contains(err.Error(), "stale cache") {
		t.Fatalf("error = %q, want it to name the stale cache", err)
	}
}
