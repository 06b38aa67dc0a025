package engine

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/deepweb/httpapi"
	"smartcrawl/internal/federate"
	"smartcrawl/internal/fixture"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/tokenize"
)

// fixtureBackends serves the running-example hidden database both ways a
// single-interface request reaches it: as a CSV file for Hidden and as a
// hiddenserver for URL.
func fixtureBackends(tb testing.TB) (hiddenPath, url string) {
	tb.Helper()
	u := fixture.New()
	hiddenPath = filepath.Join(tb.TempDir(), "hidden.csv")
	f, err := os.Create(hiddenPath)
	if err != nil {
		tb.Fatal(err)
	}
	if err := u.HiddenTab.WriteCSV(f); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.NewServer(u.DB, u.Tokenizer, nil).Handler())
	tb.Cleanup(srv.Close)
	return hiddenPath, srv.URL
}

// layers names a searcher's layers, outermost first.
func layers(s deepweb.Searcher) string {
	var names []string
	for s != nil {
		switch l := s.(type) {
		case *deepweb.Retrying:
			names, s = append(names, fmt.Sprintf("Retrying(%d)", l.Retries)), l.S
		case *deepweb.Limited:
			names, s = append(names, "Limited"), l.S
		case *deepweb.Faulty:
			names, s = append(names, "Faulty"), l.S
		case *hidden.Database:
			names, s = append(names, "hidden"), nil
		case *httpapi.Client:
			names, s = append(names, "client"), nil
		default:
			names, s = append(names, fmt.Sprintf("%T", s)), nil
		}
	}
	return strings.Join(names, " > ")
}

// TestSingleInterfaceStack pins the searcher stack, breaker and sample a
// single-interface Request builds through its federate.Spec, for both
// backends with faults, pacing and retries on and off: faults inside the
// token bucket, retries outside it and only on a paced or faulted
// interface, the auto breaker (5) only with faults, a Bernoulli sample
// for Hidden and a keyword sample for URL.
func TestSingleInterfaceStack(t *testing.T) {
	hiddenPath, url := fixtureBackends(t)
	cases := []struct {
		faults  string
		rate    float64
		retries int
		want    string // %s is the backend
	}{
		{"", 0, 0, "%s"},
		{"", 0, 5, "%s"}, // unpaced and fault-free: nothing to retry
		{"", 5, 0, "Limited > %s"},
		{"", 5, 5, "Retrying(5) > Limited > %s"},
		{"transient10", 0, 0, "Faulty > %s"},
		{"transient10", 0, 5, "Retrying(5) > Faulty > %s"},
		{"transient10", 5, 0, "Limited > Faulty > %s"},
		{"transient10", 5, 5, "Retrying(5) > Limited > Faulty > %s"},
	}
	for _, backend := range []string{"hidden", "client"} {
		for _, c := range cases {
			name := fmt.Sprintf("%s/faults=%q/rate=%v/retries=%d", backend, c.faults, c.rate, c.retries)
			t.Run(name, func(t *testing.T) {
				req := Defaults()
				req.Local = fixture.New().Local
				req.Faults, req.Rate, req.Retries = c.faults, c.rate, c.retries
				if backend == "hidden" {
					req.Hidden, req.Theta = hiddenPath, 0.5
				} else {
					req.URL, req.SampleTarget = url, 2
				}
				if err := req.Validate(); err != nil {
					t.Fatal(err)
				}
				specs, err := req.specs()
				if err != nil {
					t.Fatal(err)
				}
				fed, err := federate.BuildAll(specs, req.Local, tokenize.New(), nil)
				if err != nil {
					t.Fatal(err)
				}
				h := fed.Ifaces[0]
				if got, want := layers(h.Searcher), fmt.Sprintf(c.want, backend); got != want {
					t.Errorf("stack %q, want %q", got, want)
				}
				if (h.Breaker != nil) != (c.faults != "") {
					t.Errorf("breaker %v with faults %q; want one exactly when faults are on", h.Breaker, c.faults)
				}
				if h.Sample == nil || h.Sample.Len() == 0 {
					t.Error("no sample built")
				}
			})
		}
	}
}

// TestRunLogLines pins the progress lines Run writes about the interface
// it built: the sample of a remote crawl, with the warning when the
// sampler falls short of its target, and the federation's member list.
func TestRunLogLines(t *testing.T) {
	hiddenPath, url := fixtureBackends(t)
	cases := []struct {
		name string
		edit func(r *Request)
		want []string
	}{
		{"hidden", func(r *Request) { r.Hidden, r.EnrichColumns = hiddenPath, []string{"rating"} }, nil},
		{"remote", func(r *Request) { r.URL, r.SampleTarget = url, 2 }, []string{
			"sample: 2 records, θ̂=100.0000%, 6 queries spent",
		}},
		{"remote short of target", func(r *Request) { r.URL = url }, []string{
			"warning: sampling incomplete: sample: query allowance exhausted before reaching target size",
			"sample: 2 records, θ̂=99.2450%, 6 queries spent",
		}},
		{"federated", func(r *Request) {
			r.Interfaces = "name=a,hidden=" + hiddenPath + ",k=2;url=" + url + ",sample-target=2"
			r.EnrichColumns = []string{"rating"}
		}, []string{"federation: 2 interfaces (a, h2)"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var log bytes.Buffer
			req := Defaults()
			req.Local, req.Budget, req.Log = fixture.New().Local, 3, &log
			req.EnrichColumns = []string{"col1"}
			c.edit(&req)
			if _, err := Run(&req); err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, line := range strings.Split(log.String(), "\n") {
				if strings.HasPrefix(line, "sample: ") || strings.HasPrefix(line, "warning: ") ||
					strings.HasPrefix(line, "federation: ") {
					got = append(got, line)
				}
			}
			if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
				t.Fatalf("interface lines:\n%s\nwant:\n%s\nfull log:\n%s",
					strings.Join(got, "\n"), strings.Join(c.want, "\n"), log.String())
			}
		})
	}
}
