package main

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"smartcrawl/internal/dataset"
	"smartcrawl/internal/engine"
	"smartcrawl/internal/index"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

// scale fixes the input sizes and budgets of every workload. "paper" is the
// measured scale: the paper's Table 3 defaults for DBLP and its Yelp
// proportions. "toy" exists for the self-test only.
type scale struct {
	dblp         dataset.DBLPConfig
	yelp         dataset.YelpConfig
	dblpBudget   int
	yelpBudget   int
	sampleTarget int
	poolSample   int
}

var scales = map[string]scale{
	"paper": {
		dblp:       dataset.DBLPConfig{CorpusSize: 400000, HiddenSize: 100000, LocalSize: 10000},
		yelp:       dataset.YelpConfig{HiddenSize: 36500, LocalSize: 3000, DriftRate: 0.1, DeltaD: 300},
		dblpBudget: 2000, // 20% of |D|, as in Table 3
		// 10% of |D|: a crawl takes about 2.5 s, so a 40 s run holds some
		// ten of them and its median is not at the mercy of one slow crawl.
		yelpBudget:   300,
		sampleTarget: 300,
		poolSample:   2000, // 20% of |D|
	},
	"toy": {
		dblp:         dataset.DBLPConfig{CorpusSize: 20000, HiddenSize: 5000, LocalSize: 500},
		yelp:         dataset.YelpConfig{HiddenSize: 2000, LocalSize: 200, DriftRate: 0.1, DeltaD: 20},
		dblpBudget:   40,
		yelpBudget:   40,
		sampleTarget: 40,
		poolSample:   60,
	},
}

// Fixed settings shared by the workloads. The load fits a 2-vCPU host: two
// dispatcher workers in a closed loop (each waits for its reply), so a
// selection batch of two, and two removal shards.
const (
	workers = 2
	shards  = 2
	// faultSeed fixes the yelp-remote fault schedule; the workload seed
	// varies only the data and the sampling.
	faultSeed = 1
	// yelpK is the top-k of the served Yelp interface.
	yelpK = 50
	// dblpK is the top-k of the simulated DBLP interface (Table 3).
	dblpK = 100
)

// workload is one benchmark workload: the dataset its inputs come from and
// how one crawl over those inputs is requested from engine.Run.
type workload struct {
	name string
	data string // "dblp" or "yelp"
	// request fills the workload-specific fields of a crawl request; p
	// names the files the crawl writes.
	request func(req *engine.Request, sc scale, in *inputs, p crawlPaths)
}

// crawlPaths are the files one crawl writes.
type crawlPaths struct {
	dir        string
	checkpoint string
	wal        string
	output     string
}

func newCrawlPaths(dir string) crawlPaths {
	return crawlPaths{
		dir:        dir,
		checkpoint: filepath.Join(dir, "crawl.ckpt"),
		wal:        filepath.Join(dir, "crawl.wal"),
		output:     filepath.Join(dir, "enriched.csv"),
	}
}

// reset removes the previous crawl's files: a leftover checkpoint would
// make engine.Run resume instead of starting a new crawl.
func (p crawlPaths) reset() error {
	if err := os.RemoveAll(p.dir); err != nil {
		return err
	}
	return os.MkdirAll(p.dir, 0o755)
}

var workloads = []*workload{
	{
		// The paper's canonical crawl, and the only workload that journals.
		name: "dblp-wal",
		data: "dblp",
		request: func(req *engine.Request, sc scale, in *inputs, p crawlPaths) {
			dblpRequest(req, sc, in)
			req.Checkpoint = p.checkpoint
			req.WAL = p.wal
		},
	},
	{
		// The only workload that crosses HTTP: ranked search, the Jaccard
		// join, and the merge-stage failure policy.
		name: "yelp-remote",
		data: "yelp",
		request: func(req *engine.Request, sc scale, in *inputs, p crawlPaths) {
			req.URL = in.url
			req.Budget = sc.yelpBudget
			req.SampleTarget = sc.sampleTarget
			// The remote path matches whole documents; the three extra
			// hidden columns hold a true match's Jaccard near 0.5-0.6.
			req.Fuzzy = 0.5
			req.EnrichColumns = []string{"col2", "col3", "col4"}
			req.Faults = "mild"
			req.FaultSeed = faultSeed
			// Retry backoff sleeps would time the clock, not the program:
			// a failed attempt returns at once and the crawl loop
			// requeues or forfeits it.
			req.Retries = 0
		},
	},
	{
		// The only workload over memory-mapped posting blocks, sampled
		// pool mining with exact recount, and sharded removal.
		name: "dblp-mapped",
		data: "dblp",
		request: func(req *engine.Request, sc scale, in *inputs, p crawlPaths) {
			dblpRequest(req, sc, in)
			req.CorpusCache = in.corpus
			req.PoolSample = sc.poolSample
		},
	},
}

func dblpRequest(req *engine.Request, sc scale, in *inputs) {
	req.Hidden = in.hidden
	req.K = dblpK
	req.RankColumn = in.rankColumn
	req.Theta = 0.005
	req.Budget = sc.dblpBudget
	req.EnrichColumns = []string{"year", "citations"}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// newRequest builds the engine request of one crawl.
func (w *workload) newRequest(sc scale, in *inputs, seed uint64, local *relational.Table, p crawlPaths) engine.Request {
	req := engine.Defaults()
	req.Local = local
	req.Strategy = "smart"
	req.Workers = workers
	req.Batch = workers
	req.Shards = shards
	req.Seed = seed
	w.request(&req, sc, in, p)
	return req
}

// inputs are the generated files of one dataset and seed. The program
// under test sees only these files (and, for yelp-remote, the server that
// serves hidden).
type inputs struct {
	local      string
	hidden     string
	corpus     string // dblp only: the prebuilt corpus cache of local
	truth      []int  // local record ID -> hidden record ID, -1 for ΔD
	rankColumn int
	url        string // yelp only: the base URL of the served hidden table
}

// prepareInputs generates the dataset of data/size/seed under root once;
// later runs with the same seed reuse the files.
func prepareInputs(root, data, size string, sc scale, seed uint64) (*inputs, error) {
	dir := filepath.Join(root, "inputs", fmt.Sprintf("%s-%s-s%d", data, size, seed))
	in := &inputs{
		local:  filepath.Join(dir, "local.csv"),
		hidden: filepath.Join(dir, "hidden.csv"),
	}
	if data == "dblp" {
		in.corpus = filepath.Join(dir, "local.scorp")
	}
	if _, err := os.Stat(filepath.Join(dir, "truth.csv")); errors.Is(err, os.ErrNotExist) {
		if err := generate(dir, data, sc, seed); err != nil {
			return nil, fmt.Errorf("generating %s inputs: %w", data, err)
		}
	} else if err != nil {
		return nil, err
	}
	truth, rank, err := readTruth(filepath.Join(dir, "truth.csv"))
	if err != nil {
		return nil, err
	}
	in.truth, in.rankColumn = truth, rank
	return in, nil
}

// generate writes local.csv, hidden.csv, truth.csv and (dblp) the corpus
// cache into a temporary directory and renames it into place, so an
// interrupted generation never leaves a half-written input set.
func generate(dir, data string, sc scale, seed uint64) error {
	var (
		inst *dataset.Instance
		err  error
	)
	switch data {
	case "dblp":
		cfg := sc.dblp
		cfg.Seed = seed
		inst, err = dataset.GenerateDBLP(cfg)
	case "yelp":
		cfg := sc.yelp
		cfg.Seed = seed
		inst, err = dataset.GenerateYelp(cfg)
	default:
		err = fmt.Errorf("unknown dataset %q", data)
	}
	if err != nil {
		return err
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(tmp, "local.csv"), inst.Local.WriteCSV); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(tmp, "hidden.csv"), inst.Hidden.WriteCSV); err != nil {
		return err
	}
	if data == "dblp" {
		// Users build the corpus cache once per corpus; the timed crawls
		// only open it. It indexes local.csv exactly as engine.Run would
		// build it, from the table as read back from the file.
		local, err := engine.LoadTable(filepath.Join(tmp, "local.csv"), "local")
		if err != nil {
			return err
		}
		if err := buildCorpus(filepath.Join(tmp, "local.scorp"), local); err != nil {
			return err
		}
	}
	if err := writeFile(filepath.Join(tmp, "truth.csv"), func(w io.Writer) error {
		return writeTruth(w, inst.Truth, inst.RankColumn)
	}); err != nil {
		return err
	}
	return os.Rename(tmp, dir)
}

// buildCorpus builds the corpus cache of local the way engine.Run builds a
// missing one.
func buildCorpus(path string, local *relational.Table) error {
	tk := tokenize.New()
	b := index.NewCorpusBuilder(index.IngestConfig{})
	for id, r := range local.Records {
		if err := b.AddRecord(id, r.Tokens(tk)); err != nil {
			return fmt.Errorf("building corpus cache: %w", err)
		}
	}
	if err := b.Finalize(path); err != nil {
		return fmt.Errorf("building corpus cache: %w", err)
	}
	return nil
}

func writeFile(path string, fill func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := fill(bw); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// writeTruth stores the ground truth as local_id,hidden_id rows; the header
// carries the rank column the generator chose.
func writeTruth(w io.Writer, truth []int, rankColumn int) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"local_id", "hidden_id", "rank_column=" + strconv.Itoa(rankColumn)}); err != nil {
		return err
	}
	for d, h := range truth {
		if err := cw.Write([]string{strconv.Itoa(d), strconv.Itoa(h), ""}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func readTruth(path string) (truth []int, rankColumn int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	rows, err := csv.NewReader(bufio.NewReader(f)).ReadAll()
	if err != nil {
		return nil, 0, fmt.Errorf("reading %s: %w", path, err)
	}
	if len(rows) == 0 {
		return nil, 0, fmt.Errorf("reading %s: empty file", path)
	}
	if _, err := fmt.Sscanf(rows[0][2], "rank_column=%d", &rankColumn); err != nil {
		return nil, 0, fmt.Errorf("reading %s header: %w", path, err)
	}
	truth = make([]int, len(rows)-1)
	for i, row := range rows[1:] {
		d, err1 := strconv.Atoi(row[0])
		h, err2 := strconv.Atoi(row[1])
		if err1 != nil || err2 != nil || d != i {
			return nil, 0, fmt.Errorf("reading %s: bad row %d", path, i+1)
		}
		truth[i] = h
	}
	return truth, rankColumn, nil
}
